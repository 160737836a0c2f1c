package dfs_test

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs"
	"aurora/internal/dfs/client"
	"aurora/internal/faultinject"
	"aurora/internal/invariant"
	"aurora/internal/metrics"
	"aurora/internal/retrypolicy"
)

// chaosRetry is the generous policy chaos runs use: a crash window
// lasts ~1.2s, so reads issued inside it must keep refetching locations
// until re-replication or recovery makes the block reachable again.
var chaosRetry = retrypolicy.Policy{
	MaxAttempts: 40,
	BaseDelay:   25 * time.Millisecond,
	MaxDelay:    200 * time.Millisecond,
	Multiplier:  2,
	Jitter:      0.2,
}

// chaosShards reads the AURORA_CHAOS_SHARDS knob so CI can run the same
// chaos gate against a partitioned namenode (the reconcile, recovery and
// invariant machinery must hold shard-count-independently). Unset or
// invalid means the classic single-map namenode.
func chaosShards() int {
	n, err := strconv.Atoi(os.Getenv("AURORA_CHAOS_SHARDS"))
	if err != nil || n < 1 {
		return 1
	}
	return n
}

// chaosSchedule draws the stress-test fault script: two crash-recover
// cycles on distinct nodes (33% of the cluster, above the 10% bar, and
// below the replication factor so no block can lose every holder), one
// latency spike, one heartbeat-drop window longer than the dead
// timeout, and one replica corruption.
func chaosSchedule(t *testing.T, seed uint64, nodes int) faultinject.Schedule {
	t.Helper()
	sch, err := faultinject.RandomSchedule(seed, faultinject.ScheduleConfig{
		Nodes:          nodes,
		Crashes:        2,
		Slows:          1,
		HeartbeatDrops: 1,
		Corrupts:       1,
		Start:          300 * time.Millisecond,
		Spacing:        300 * time.Millisecond,
		Downtime:       1200 * time.Millisecond,
		SlowLatency:    10 * time.Millisecond,
		SlowDur:        300 * time.Millisecond,
		DropDur:        600 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RandomSchedule: %v", err)
	}
	if killed := len(sch.CrashedNodes()); killed*10 < nodes {
		t.Fatalf("schedule kills %d of %d nodes, below the 10%% bar", killed, nodes)
	}
	return sch
}

// chaosRun drives one seeded chaos cycle and returns the injector's
// event log: load files, unleash the schedule, keep reading under
// retry and delete one file once the first node is down, then assert
// full recovery — zero lost blocks, a healthy fsck, and a placement
// that satisfies the paper invariants. The downed node rejoins with
// whatever copies of the deleted file it held, so a healthy fsck also
// means those were deleted on its return.
func chaosRun(t *testing.T, seed uint64) []string {
	t.Helper()
	const nodes = 6
	sch := chaosSchedule(t, seed, nodes)
	inj := faultinject.New(sch)

	tc := startCluster(t, nodes, func(s *dfs.Spec) {
		s.NameNode.DeadTimeout = 400 * time.Millisecond
		s.NameNode.Shards = chaosShards()
		s.DataNode.Retry = retrypolicy.Policy{
			MaxAttempts: 3,
			BaseDelay:   25 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
			Multiplier:  2,
		}
		s.Faults = inj
	})
	nn := tc.NameNode

	// The chunked data path runs under chaos too: the stream transport
	// goes through the injector so crashes tear transfers at frame
	// boundaries, and the small chunk size forces multi-chunk blocks.
	c := client.New(nn.Addr(),
		client.WithBlockSize(1<<12),
		client.WithSeed(seed),
		client.WithCall(inj.CallFrom(faultinject.External)),
		client.WithOpenStream(inj.StreamFrom(faultinject.External)),
		client.WithChunkSize(1<<10),
		client.WithRetry(chaosRetry),
	)
	const files = 6
	want := make(map[string][]byte, files)
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/chaos/file%d", i)
		data := payload(3*(1<<12)+256*i+1, byte(i))
		if err := c.Create(path, data, 0); err != nil {
			t.Fatalf("Create %s: %v", path, err)
		}
		want[path] = data
	}
	if err := nn.WaitConverged(10 * time.Second); err != nil {
		t.Fatalf("pre-fault convergence: %v", err)
	}

	// Unleash the schedule on the wall clock — a ticker advances the
	// injector until it has applied every event — and keep reading
	// through the churn. Every read must succeed: replicas outnumber
	// concurrent crashes, and the retry policy outlasts the fault
	// windows.
	applied := make(chan struct{})
	stop := make(chan struct{})
	defer func() { close(stop); <-applied }()
	go func() {
		defer close(applied)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		t0 := time.Now()
		for !inj.Advance(time.Since(t0)) {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	gone := fmt.Sprintf("/chaos/file%d", files-1)
	crashed := func(line string) bool { return strings.Contains(line, " "+string(faultinject.Crash)+" ") }
	optimized := false
	for i := 0; ; i++ {
		if _, ok := want[gone]; ok && slices.ContainsFunc(inj.Log(), crashed) {
			if err := c.Delete(gone); err != nil {
				t.Fatalf("Delete %s: %v", gone, err)
			}
			delete(want, gone)
		}
		path := fmt.Sprintf("/chaos/file%d", i%len(want))
		got, err := c.Read(path)
		if err != nil {
			t.Fatalf("Read %s during churn: %v", path, err)
		}
		if !bytes.Equal(got, want[path]) {
			t.Fatalf("Read %s during churn: %d bytes != %d written", path, len(got), len(want[path]))
		}
		if i >= 2 && !optimized {
			// One optimizer period mid-churn: it must run, not abort, and
			// its output must not assign replicas to dead machines (the
			// post-optimize repair pass).
			if _, err := nn.OptimizeNow(core.OptimizerOptions{Epsilon: 0.1, RackAware: true}); err != nil {
				t.Fatalf("OptimizeNow during churn: %v", err)
			}
			optimized = true
		}
		select {
		case <-applied:
		default:
			continue
		}
		break
	}

	// All faults applied; recovered nodes rejoin via heartbeats and the
	// reconcile loop heals replica counts. Wait for a clean bill of
	// health, then verify every byte survived.
	deadline := time.Now().Add(20 * time.Second)
	for {
		h, err := c.Fsck()
		if err == nil && h.Healthy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not heal: fsck=%+v err=%v", h, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for path, data := range want {
		got, err := c.Read(path)
		if err != nil {
			t.Fatalf("Read %s after recovery: %v", path, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("Read %s after recovery: data mismatch", path)
		}
	}
	p, err := nn.PlacementClone()
	if err != nil {
		t.Fatalf("PlacementClone: %v", err)
	}
	if err := invariant.CheckPlacement(p); err != nil {
		t.Fatalf("post-recovery invariant: %v", err)
	}

	// The injected faults must be visible in live telemetry: the injector
	// counts every applied event, and the namenode's optimizer period
	// mid-churn publishes its SOL series into the process registry.
	counters := metrics.Default.CounterValues()
	if counters["faultinject.crash"] == 0 {
		t.Errorf("telemetry: faultinject.crash counter is zero after a crash schedule; counters=%v", counters)
	}
	if counters["aurora_optimizer_periods"] == 0 {
		t.Error("telemetry: aurora_optimizer_periods is zero after OptimizeNow ran")
	}
	if sol := metrics.Default.Gauge("aurora_optimizer_sol").Value(); sol <= 0 {
		t.Errorf("telemetry: aurora_optimizer_sol = %v after an optimizer period, want > 0", sol)
	}

	// Tear down now, not at test end: the second same-seed run must not
	// run beside this cluster.
	_ = tc.Close()
	return inj.Log()
}

// TestChaosCrashRecoverNoDataLoss is the seeded chaos gate: a third of
// the datanodes crash mid-run (plus latency spikes, dropped heartbeats
// and a corrupted replica), no block may be lost, reads must succeed
// throughout, and the same seed must produce an identical fault log on
// a second full run.
func TestChaosCrashRecoverNoDataLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run takes several seconds")
	}
	const seed = 20260806
	first := chaosRun(t, seed)
	if len(first) == 0 {
		t.Fatal("first run applied no fault events")
	}
	second := chaosRun(t, seed)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same seed, different event logs:\nrun1:\n%s\nrun2:\n%s",
			strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
}
