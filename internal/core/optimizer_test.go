package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"aurora/internal/topology"
)

func TestOptimizeWithoutBudgetIsPureSearch(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 21))
	cl := mustCluster(t, 2, 3, 20)
	specs := randomSpecs(rng, 20, 2, 2, 30)
	p := rackRandomPlacement(t, cl, specs, rng)
	counts := make(map[BlockID]int)
	for _, id := range p.Blocks() {
		counts[id] = p.ReplicaCount(id)
	}
	res, err := Optimize(p, OptimizerOptions{RackAware: true})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Targets != nil {
		t.Errorf("Targets = %v, want nil with no budget", res.Targets)
	}
	if res.Replications != 0 {
		t.Errorf("Replications = %d, want 0", res.Replications)
	}
	for id, k := range counts {
		if got := p.ReplicaCount(id); got != k {
			t.Errorf("block %d count changed %d -> %d without budget", id, k, got)
		}
	}
}

func TestOptimizeReplicatesHotBlocks(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 22))
	cl := mustCluster(t, 2, 4, 50)
	specs := []BlockSpec{
		spec(1, 1000, 3, 2), // very hot
		spec(2, 10, 3, 2),
		spec(3, 10, 3, 2),
	}
	p := rackRandomPlacement(t, cl, specs, rng)
	res, err := Optimize(p, OptimizerOptions{
		RackAware:         true,
		ReplicationBudget: 12, // 9 minimum + 3 extra
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Targets[1] != 6 {
		t.Errorf("hot block target = %d, want 6 (all extra budget)", res.Targets[1])
	}
	if got := p.ReplicaCount(1); got != 6 {
		t.Errorf("hot block replica count = %d, want 6", got)
	}
	if res.Replications != 3 {
		t.Errorf("Replications = %d, want 3", res.Replications)
	}
	if err := p.CheckFeasible(); err != nil {
		t.Errorf("CheckFeasible: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestOptimizeHonoursKBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 23))
	cl := mustCluster(t, 2, 4, 50)
	specs := []BlockSpec{
		spec(1, 1000, 3, 2),
		spec(2, 500, 3, 2),
	}
	p := rackRandomPlacement(t, cl, specs, rng)
	res, err := Optimize(p, OptimizerOptions{
		RackAware:           true,
		ReplicationBudget:   20,
		MaxReplicationMoves: 2, // K
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Replications > 2 {
		t.Errorf("Replications = %d, want <= K=2", res.Replications)
	}
}

func TestOptimizeObserversFire(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 24))
	cl := mustCluster(t, 2, 4, 50)
	specs := []BlockSpec{spec(1, 1000, 3, 2), spec(2, 5, 3, 2)}
	p := rackRandomPlacement(t, cl, specs, rng)
	var reps int
	res, err := Optimize(p, OptimizerOptions{
		RackAware:         true,
		ReplicationBudget: 10,
		OnReplicate: func(id BlockID, src, dst topology.MachineID) {
			reps++
			if id != 1 {
				t.Errorf("replicated block %d, want only hot block 1", id)
			}
			if src == topology.NoMachine {
				t.Error("replication source missing for placed block")
			}
			if dst == topology.NoMachine {
				t.Error("replication destination missing")
			}
		},
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if reps != res.Replications {
		t.Errorf("observer saw %d replications, result says %d", reps, res.Replications)
	}
}

func TestOptimizeLazyEvictionUnderCapacityPressure(t *testing.T) {
	// Tiny cluster at full capacity. The optimizer wants to replicate
	// the hot block; it must evict a cold surplus replica first.
	cl := mustCluster(t, 1, 3, 2) // 3 machines x 2 slots = 6 replica slots
	p := mustPlacement(t, cl, []BlockSpec{
		spec(1, 1000, 1, 1),
		spec(2, 1, 1, 1),
	})
	// Block 2 over-provisioned at 3 replicas; block 1 at 1; total 4.
	for _, m := range []topology.MachineID{0, 1, 2} {
		if err := p.AddReplica(2, m); err != nil {
			t.Fatalf("AddReplica: %v", err)
		}
	}
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	// Fill every remaining slot with a third cold block so the cluster
	// is at capacity.
	if err := p.AddBlock(spec(3, 1, 1, 1)); err != nil {
		t.Fatalf("AddBlock: %v", err)
	}
	if err := p.AddReplica(3, 1); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(3, 2); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}

	evictions := 0
	res, err := Optimize(p, OptimizerOptions{
		ReplicationBudget: 6,
		OnEvict:           func(BlockID, topology.MachineID) { evictions++ },
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Evictions == 0 || evictions != res.Evictions {
		t.Errorf("Evictions = %d (observer %d), want > 0 and equal", res.Evictions, evictions)
	}
	if got := p.ReplicaCount(1); got < 2 {
		t.Errorf("hot block count = %d, want >= 2 after eviction made room", got)
	}
	// Eviction must never break feasibility.
	if err := p.CheckFeasible(); err != nil {
		t.Errorf("CheckFeasible: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestOptimizeReducesCostEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 25))
	cl := mustCluster(t, 3, 5, 60)
	// Zipf-ish popularity: few hot blocks.
	var specs []BlockSpec
	for i := 0; i < 60; i++ {
		pop := float64(1)
		if i < 3 {
			pop = 500
		} else if i < 10 {
			pop = 50
		}
		specs = append(specs, spec(BlockID(i+1), pop, 3, 2))
	}
	p := rackRandomPlacement(t, cl, specs, rng)
	before := p.Cost()
	res, err := Optimize(p, OptimizerOptions{
		Epsilon:           0.05,
		RackAware:         true,
		ReplicationBudget: 60*3 + 30,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if p.Cost() >= before {
		t.Errorf("Optimize did not reduce cost: %v -> %v", before, p.Cost())
	}
	if res.Search.FinalCost != p.Cost() {
		t.Errorf("search FinalCost %v != placement cost %v", res.Search.FinalCost, p.Cost())
	}
	if err := p.CheckFeasible(); err != nil {
		t.Errorf("CheckFeasible: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestOptimizeMaxSearchIterations(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 31))
	cl := mustCluster(t, 2, 4, 100)
	specs := randomSpecs(rng, 60, 2, 2, 40)
	p := rackRandomPlacement(t, cl, specs, rng)
	res, err := Optimize(p, OptimizerOptions{
		RackAware:           true,
		MaxSearchIterations: 2,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Search.Iterations > 2 {
		t.Errorf("search ran %d iterations, cap was 2", res.Search.Iterations)
	}
}

func TestOptimizeMaxPerBlockOption(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 32))
	cl := mustCluster(t, 2, 4, 100)
	specs := []BlockSpec{spec(1, 1000, 3, 2), spec(2, 1, 3, 2)}
	p := rackRandomPlacement(t, cl, specs, rng)
	res, err := Optimize(p, OptimizerOptions{
		RackAware:         true,
		ReplicationBudget: 20,
		MaxPerBlock:       4,
	})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Targets[1] > 4 {
		t.Errorf("target %d exceeds MaxPerBlock 4", res.Targets[1])
	}
	if got := p.ReplicaCount(1); got > 4 {
		t.Errorf("hot block has %d replicas, cap was 4", got)
	}
}

func TestOptimizeIdempotentWhenConverged(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 33))
	cl := mustCluster(t, 2, 4, 100)
	specs := randomSpecs(rng, 30, 3, 2, 40)
	p := rackRandomPlacement(t, cl, specs, rng)
	budget := p.TotalReplicas() + 30
	opts := OptimizerOptions{Epsilon: 0.1, RackAware: true, ReplicationBudget: budget}
	if _, err := Optimize(p, opts); err != nil {
		t.Fatalf("first Optimize: %v", err)
	}
	second, err := Optimize(p, opts)
	if err != nil {
		t.Fatalf("second Optimize: %v", err)
	}
	// Same popularity, already optimized: the second period must be a
	// near no-op (no replications; the search finds nothing admissible).
	if second.Replications != 0 {
		t.Errorf("second period replicated %d blocks", second.Replications)
	}
	if second.Search.Iterations != 0 {
		t.Errorf("second period performed %d search ops", second.Search.Iterations)
	}
}

// TestOptimizeDeterministicUnderNearTies pins Algorithm 3's replication
// phase to its input, not to map iteration order. The popularities form
// a chain in which neighbours are floatEq but the ends are not, so the
// tolerance comparators are not transitive: a sort or heap fed in map
// order would copy replicas in a run-dependent sequence.
func TestOptimizeDeterministicUnderNearTies(t *testing.T) {
	cl := mustCluster(t, 2, 4, 60)
	const n = 48
	specs := make([]BlockSpec, n)
	for i := range specs {
		specs[i] = spec(BlockID(i+1), 3*(1+float64(i)*0.7e-9), 2, 1)
	}
	base := rackRandomPlacement(t, cl, specs, rand.New(rand.NewPCG(34, 34)))
	distinct := make(map[string]int)
	for run := 0; run < 20; run++ {
		p := base.Clone()
		var log []byte
		_, err := Optimize(p, OptimizerOptions{
			RackAware:         true,
			ReplicationBudget: 2*n + 12,
			OnReplicate: func(id BlockID, src, dst topology.MachineID) {
				log = fmt.Appendf(log, "%d:%d->%d ", id, src, dst)
			},
		})
		if err != nil {
			t.Fatalf("Optimize: %v", err)
		}
		distinct[string(log)]++
	}
	if len(distinct) != 1 {
		t.Fatalf("20 identical runs produced %d distinct replication logs", len(distinct))
	}
}
