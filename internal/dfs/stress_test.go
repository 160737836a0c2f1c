package dfs_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/client"
)

// TestParallelClientsUnderOptimizerStress is the DFS-level concurrency
// stress test: several clients create and repeatedly read files while
// a background goroutine forces optimizer periods and reconciliation
// against the live block map. Run under -race (and -tags
// invariantdebug, as `make race` does) this exercises the namenode's
// block map, the datanode stores, and the post-optimize invariant
// assertions all at once.
func TestParallelClientsUnderOptimizerStress(t *testing.T) {
	tc := startCluster(t, 6)

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Failures here surface through the invariant check below and
			// the clients' reads; an occasional busy error is fine.
			_, _ = tc.NameNode.OptimizeNow(core.OptimizerOptions{Epsilon: 0.1, RackAware: true})
			tc.NameNode.ReconcileOnce()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	const clients = 6
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client.New(tc.NameNode.Addr(), client.WithBlockSize(1<<12), client.WithSeed(uint64(w)+100))
			path := fmt.Sprintf("/stress/f%d", w)
			data := payload(2*(1<<12)+17*w, byte(w+1))
			if err := c.Create(path, data, 0); err != nil {
				t.Errorf("client %d: Create: %v", w, err)
				return
			}
			for i := 0; i < 15; i++ {
				got, err := c.Read(path)
				if err != nil {
					t.Errorf("client %d: Read %d: %v", w, i, err)
					return
				}
				if !bytes.Equal(got, data) {
					t.Errorf("client %d: read %d bytes, want %d", w, len(got), len(data))
					return
				}
			}
			info, err := c.Stat(path)
			if err != nil {
				t.Errorf("client %d: Stat: %v", w, err)
				return
			}
			if info.Length != int64(len(data)) || !info.Complete {
				t.Errorf("client %d: Stat = %+v, want %d bytes complete", w, info, len(data))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	if err := tc.NameNode.WaitConverged(10 * time.Second); err != nil {
		t.Errorf("WaitConverged: %v", err)
	}
	c := client.New(tc.NameNode.Addr(), client.WithSeed(999))
	rep, err := c.Fsck()
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if !rep.Healthy {
		t.Errorf("cluster unhealthy after stress: %+v", rep)
	}
	for w := 0; w < clients; w++ {
		path := fmt.Sprintf("/stress/f%d", w)
		want := payload(2*(1<<12)+17*w, byte(w+1))
		got, err := c.Read(path)
		if err != nil {
			t.Errorf("final read %s: %v", path, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("final read %s: %d bytes, want %d", path, len(got), len(want))
		}
	}
}
