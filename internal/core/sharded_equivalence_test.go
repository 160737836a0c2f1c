package core_test

import (
	"math"
	"slices"
	"testing"

	"aurora/internal/core"
	"aurora/internal/invariant"
	"aurora/internal/topology"
)

// buildShardedFixture places `blocks` Zipf-popular blocks (3 replicas,
// 2 racks) deterministically over a 4x10 cluster, once directly and once
// through a ShardedPlacement with the given shard count. The round-robin
// machine assignment with rack-stride offsets satisfies spread without a
// rejection loop.
func buildShardedFixture(t *testing.T, shards, blocks int) (*core.Placement, *core.ShardedPlacement) {
	t.Helper()
	const machines, racks = 40, 4
	perRack := machines / racks
	capacity := 3*blocks/machines + 40
	cluster, err := topology.Uniform(racks, perRack, capacity, 8)
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]core.BlockSpec, blocks)
	for i := range specs {
		specs[i] = core.BlockSpec{
			ID:          core.BlockID(i + 1),
			Popularity:  1000 / float64(i+1),
			MinReplicas: 3,
			MinRacks:    2,
		}
	}
	direct, err := core.NewPlacement(cluster, specs)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := core.NewShardedPlacement(cluster, shards, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		m1 := i % machines
		for _, m := range []int{m1, (m1 + perRack) % machines, (m1 + 2*perRack) % machines} {
			if err := direct.AddReplica(s.ID, topology.MachineID(m)); err != nil {
				t.Fatal(err)
			}
			if err := sharded.For(s.ID).AddReplica(s.ID, topology.MachineID(m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return direct, sharded
}

// TestOptimizeShardedSingleShardByteIdentical pins the tentpole's
// equivalence gate: with one shard, OptimizeSharded must reproduce
// Optimize on the same instance bit-for-bit — the same operation
// sequence through the observers and bit-identical machine loads.
func TestOptimizeShardedSingleShardByteIdentical(t *testing.T) {
	direct, sharded := buildShardedFixture(t, 1, 2000)

	var directOps, shardedOps []core.Op
	var directRepl, shardedRepl [][3]int64
	budget := direct.TotalReplicas() + 200

	dres, err := core.Optimize(direct, core.OptimizerOptions{
		Epsilon:             0.1,
		RackAware:           true,
		ReplicationBudget:   budget,
		MaxReplicationMoves: 200,
		MaxSearchIterations: 500,
		OnOp:                func(op core.Op) { directOps = append(directOps, op) },
		OnReplicate: func(id core.BlockID, from, to topology.MachineID) {
			directRepl = append(directRepl, [3]int64{int64(id), int64(from), int64(to)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := core.OptimizeSharded(sharded, core.ShardedOptimizerOptions{
		Opts: core.OptimizerOptions{
			Epsilon:             0.1,
			RackAware:           true,
			ReplicationBudget:   budget,
			MaxReplicationMoves: 200,
			MaxSearchIterations: 500,
			OnOp:                func(op core.Op) { shardedOps = append(shardedOps, op) },
			OnReplicate: func(id core.BlockID, from, to topology.MachineID) {
				shardedRepl = append(shardedRepl, [3]int64{int64(id), int64(from), int64(to)})
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(directOps) != len(shardedOps) {
		t.Fatalf("op count differs: direct %d, sharded %d", len(directOps), len(shardedOps))
	}
	for i := range directOps {
		if directOps[i] != shardedOps[i] {
			t.Fatalf("op %d differs: direct %+v, sharded %+v", i, directOps[i], shardedOps[i])
		}
	}
	if len(directRepl) != len(shardedRepl) {
		t.Fatalf("replication count differs: direct %d, sharded %d", len(directRepl), len(shardedRepl))
	}
	for i := range directRepl {
		if directRepl[i] != shardedRepl[i] {
			t.Fatalf("replication %d differs", i)
		}
	}
	if dres.Replications != sres.Replications || dres.Evictions != sres.Evictions ||
		dres.Search != sres.Search {
		t.Fatalf("results differ: direct %+v, sharded %+v", dres, sres)
	}
	dLoads := direct.Loads()
	sLoads := sharded.Shard(0).Loads()
	for m := range dLoads {
		if math.Float64bits(dLoads[m]) != math.Float64bits(sLoads[m]) {
			t.Fatalf("machine %d load differs at the bit level: %v vs %v", m, dLoads[m], sLoads[m])
		}
	}
}

// TestOptimizeShardedProperty is the sharding correctness property test,
// run through the partitioned period the namenode and the simulator
// use: after three periods of concurrent per-shard optimization, the
// cross-shard rebalance and the replay onto the flat placement, the
// flat placement satisfies the paper invariants against the machines'
// real capacities (invariant.CheckPlacement), replicas are conserved,
// and every period's budget shares sum to the extra budget. Each
// replayed layout is exactly the one OptimizeSharded leaves in the
// shards.
func TestOptimizeShardedProperty(t *testing.T) {
	const shards = 4
	flat, _ := buildShardedFixture(t, shards, 2000)
	before := flat.TotalReplicas()
	opts := core.ShardedOptimizerOptions{
		Workers: shards, // genuinely concurrent periods
		Opts: core.OptimizerOptions{
			Epsilon:             0.1,
			RackAware:           true,
			ReplicationBudget:   before + 200,
			MaxReplicationMoves: 100,
			MaxSearchIterations: 400,
		},
	}

	// The first period's replay, against the shards it replays.
	_, sp := buildShardedFixture(t, shards, 2000)
	if _, err := core.OptimizeSharded(sp, opts); err != nil {
		t.Fatal(err)
	}
	totalRepl, totalEvict := 0, 0
	var shares []int
	for period := 0; period < 3; period++ {
		res, err := core.OptimizePartitioned(flat, shards, shares, opts)
		if err != nil {
			t.Fatal(err)
		}
		if period == 0 {
			for _, id := range flat.Blocks() {
				if got, want := flat.Replicas(id), sp.For(id).Replicas(id); !slices.Equal(got, want) {
					t.Fatalf("block %d replayed onto %v, the shards hold it on %v", id, got, want)
				}
			}
		}
		totalRepl += res.Replications
		totalEvict += res.Evictions
		if res.Imbalance < 1 {
			t.Fatalf("imbalance %v below 1 (max/mean)", res.Imbalance)
		}
		sum := 0
		for _, s := range res.Shares {
			sum += s
		}
		if sum != 200 {
			t.Fatalf("period %d: budget shares sum to %d, want 200", period, sum)
		}
		shares = res.NextShares
	}
	if shares == nil {
		t.Fatal("rebalance produced no shares")
	}
	if err := invariant.CheckPlacement(flat); err != nil {
		t.Fatal(err)
	}
	if got, want := flat.TotalReplicas(), before+totalRepl-totalEvict; got != want {
		t.Fatalf("replica conservation broken: have %d, want %d (%d + %d - %d)",
			got, want, before, totalRepl, totalEvict)
	}
}

// TestOptimizeShardedDeterministic pins that a concurrent sharded period
// is replayable: two runs from identical placements produce identical
// per-shard results and bit-identical loads regardless of worker
// interleaving.
func TestOptimizeShardedDeterministic(t *testing.T) {
	const shards = 4
	_, sp1 := buildShardedFixture(t, shards, 2000)
	_, sp2 := buildShardedFixture(t, shards, 2000)
	opts := core.ShardedOptimizerOptions{
		Workers: shards,
		Opts: core.OptimizerOptions{
			Epsilon:             0.1,
			RackAware:           true,
			ReplicationBudget:   sp1.TotalReplicas() + 200,
			MaxReplicationMoves: 100,
			MaxSearchIterations: 400,
		},
	}
	r1, err := core.OptimizeSharded(sp1, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := core.OptimizeSharded(sp2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Search != r2.Search || r1.Replications != r2.Replications || r1.Evictions != r2.Evictions {
		t.Fatalf("sharded period not deterministic: %+v vs %+v", r1, r2)
	}
	for i := 0; i < shards; i++ {
		l1, l2 := sp1.Shard(i).Loads(), sp2.Shard(i).Loads()
		for m := range l1 {
			if math.Float64bits(l1[m]) != math.Float64bits(l2[m]) {
				t.Fatalf("shard %d machine %d: %v vs %v", i, m, l1[m], l2[m])
			}
		}
	}
}
