package dfs_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs"
	"aurora/internal/dfs/client"
	"aurora/internal/invariant"
)

// A sharded namenode keeps every machine within its real capacity. The
// placer, the heal pass and the period all work over one flat block map
// of the real cluster; only a period's compute partitions it, and the
// shards' layout is replayed against the real capacities, so a layout
// the shards' overcommitted quotas admit but the machines cannot hold
// fails its period and changes nothing. The datanodes are filled to 90 %
// of their capacity before the periods run.
func TestShardedNameNodeRespectsCapacity(t *testing.T) {
	const (
		nodes    = 6
		capacity = 20
		files    = nodes * capacity * 9 / 10 / 3 // one block each, 3 replicas
	)
	tc := startCluster(t, nodes, func(s *dfs.Spec) {
		s.NameNode.Shards = 4
		s.DataNode.CapacityBlocks = capacity
	})
	nn := tc.NameNode
	c := client.New(nn.Addr(), client.WithBlockSize(1<<12), client.WithSeed(1))
	for i := 0; i < files; i++ {
		if err := c.Create(fmt.Sprintf("/full/f%d", i), payload(1<<10, byte(i)), 0); err != nil {
			t.Fatalf("create %d of %d: %v", i+1, files, err)
		}
	}
	// A Zipf-like read mix, so the periods have replicas to add and
	// loads to even out.
	for i := 0; i < files; i++ {
		for r := 0; r < 2*files/(i+1); r++ {
			if _, err := c.Read(fmt.Sprintf("/full/f%d", i)); err != nil {
				t.Fatalf("read /full/f%d: %v", i, err)
			}
		}
	}
	for p := 0; p < 3; p++ {
		res, err := nn.OptimizeNow(core.OptimizerOptions{
			Epsilon: 0.1, RackAware: true,
			ReplicationBudget: 3*files + nodes, MaxReplicationMoves: nodes, MaxSearchIterations: 200,
		})
		switch {
		case errors.Is(err, core.ErrMachineFull):
			t.Logf("period %d: %v", p, err)
		case err != nil:
			t.Fatalf("period %d: %v", p, err)
		default:
			t.Logf("period %d: %d replications, %d movements", p, res.Replications, res.Search.Movements)
		}
	}
	info, err := c.ClusterInfo()
	if err != nil {
		t.Fatalf("cluster_info: %v", err)
	}
	for _, n := range info {
		if n.Blocks > n.Capacity {
			t.Errorf("node %d desires %d blocks, capacity %d", n.ID, n.Blocks, n.Capacity)
		}
	}
	p, err := nn.PlacementClone()
	if err != nil {
		t.Fatalf("PlacementClone: %v", err)
	}
	if err := invariant.CheckPlacement(p); err != nil {
		t.Errorf("desired placement: %v", err)
	}
	if err := nn.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}
