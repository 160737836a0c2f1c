package core

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"aurora/internal/topology"
)

// buildRandomInstance creates a random feasible placement for property
// tests: small enough to run hundreds of times, varied enough to explore
// the operation space.
func buildRandomInstance(seed uint64) (*Placement, []BlockSpec, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0xbeef))
	racks := rng.IntN(3) + 2
	perRack := rng.IntN(3) + 2
	capacity := rng.IntN(20) + 10
	cl, err := topology.Uniform(racks, perRack, capacity, 2)
	if err != nil {
		return nil, nil, err
	}
	nBlocks := rng.IntN(20) + 5
	specs := make([]BlockSpec, nBlocks)
	for i := range specs {
		k := rng.IntN(3) + 1
		rho := 1
		if k >= 2 && rng.IntN(2) == 0 {
			rho = 2
		}
		specs[i] = BlockSpec{
			ID:          BlockID(i + 1),
			Popularity:  float64(rng.IntN(100)),
			MinReplicas: k,
			MinRacks:    rho,
		}
	}
	p, err := NewPlacement(cl, specs)
	if err != nil {
		return nil, nil, err
	}
	for _, s := range specs {
		if err := InitialPlace(p, s.ID, s.MinReplicas, topology.NoMachine); err != nil {
			return nil, nil, err
		}
	}
	// Shuffle with random feasible moves so the start is not already
	// greedy-balanced.
	machines := cl.Machines()
	for i := 0; i < 50; i++ {
		id := specs[rng.IntN(len(specs))].ID
		reps := p.Replicas(id)
		if len(reps) == 0 {
			continue
		}
		from := reps[rng.IntN(len(reps))]
		to := machines[rng.IntN(len(machines))]
		_ = p.MoveReplica(id, from, to) // infeasible moves just fail
	}
	return p, specs, nil
}

// Properties of both local searches, on random instances:
//  1. cost never increases;
//  2. per-block replica counts are preserved exactly;
//  3. fault-tolerance feasibility is preserved;
//  4. incremental bookkeeping stays consistent;
//  5. the run is deterministic.
func TestSearchInvariantsProperty(t *testing.T) {
	check := func(search func(*Placement, SearchOptions) (SearchResult, error)) func(seed uint64, epsRaw uint8) bool {
		return func(seed uint64, epsRaw uint8) bool {
			p, _, err := buildRandomInstance(seed)
			if errors.Is(err, ErrMachineFull) {
				return true // instance does not fit the cluster; vacuous
			}
			if err != nil {
				t.Logf("build: %v", err)
				return false
			}
			eps := float64(epsRaw%10) / 10
			counts := make(map[BlockID]int)
			for _, id := range p.Blocks() {
				counts[id] = p.ReplicaCount(id)
			}
			feasibleBefore := p.CheckFeasible() == nil
			before := p.Cost()
			clone := p.Clone()

			res, err := search(p, SearchOptions{Epsilon: eps})
			if err != nil {
				t.Logf("search: %v", err)
				return false
			}
			if res.FinalCost > before+1e-9 {
				t.Logf("cost increased: %v -> %v", before, res.FinalCost)
				return false
			}
			for id, k := range counts {
				if p.ReplicaCount(id) != k {
					t.Logf("replica count changed for block %d", id)
					return false
				}
			}
			if feasibleBefore && p.CheckFeasible() != nil {
				t.Logf("feasibility broken")
				return false
			}
			if err := p.Validate(); err != nil {
				t.Logf("validate: %v", err)
				return false
			}
			// Determinism: the same search on the clone lands identically.
			res2, err := search(clone, SearchOptions{Epsilon: eps})
			if err != nil || res2.Iterations != res.Iterations || res2.FinalCost != res.FinalCost {
				t.Logf("nondeterministic: %+v vs %+v (%v)", res, res2, err)
				return false
			}
			return true
		}
	}
	t.Run("node", func(t *testing.T) {
		if err := quick.Check(check(BPNodeSearch), &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	})
	t.Run("rack", func(t *testing.T) {
		if err := quick.Check(check(BPRackSearch), &quick.Config{MaxCount: 60}); err != nil {
			t.Error(err)
		}
	})
}

// Property: Optimize never exceeds the replication budget (starting from
// a minimal placement), never drops a block below its minimums, and
// leaves consistent bookkeeping. buildRandomInstance can start
// infeasible — InitialPlace falls back when the racks it wants are full
// — so the minimums are checked per block, on the blocks that met them
// before.
func TestOptimizeInvariantsProperty(t *testing.T) {
	// An infeasible start quick.Check once drew: 2 racks × 2 machines
	// with rack 1 full, so block 22 (ρ = 2) sits on machines 0 and 1.
	t.Run("infeasible start", func(t *testing.T) {
		if !optimizeInvariantsHold(t, 0xd7f8c08e3464580d, 0x86) {
			t.Error("invariant broken")
		}
	})
	f := func(seed uint64, extraRaw uint8) bool { return optimizeInvariantsHold(t, seed, extraRaw) }
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func optimizeInvariantsHold(t *testing.T, seed uint64, extraRaw uint8) bool {
	p, specs, err := buildRandomInstance(seed)
	if errors.Is(err, ErrMachineFull) {
		return true // instance does not fit the cluster; vacuous
	}
	if err != nil {
		return false
	}
	minTotal := 0
	var feasibleBefore []BlockID
	for _, s := range specs {
		minTotal += s.MinReplicas
		if p.Feasible(s.ID) {
			feasibleBefore = append(feasibleBefore, s.ID)
		}
	}
	budget := minTotal + int(extraRaw%32)
	if budget < p.TotalReplicas() {
		budget = p.TotalReplicas()
	}
	if budget <= 0 {
		return true
	}
	if _, err := Optimize(p, OptimizerOptions{
		Epsilon:           0.1,
		RackAware:         true,
		ReplicationBudget: budget,
	}); err != nil {
		t.Logf("optimize: %v", err)
		return false
	}
	if p.TotalReplicas() > budget {
		t.Logf("budget exceeded: %d > %d", p.TotalReplicas(), budget)
		return false
	}
	for _, id := range feasibleBefore {
		if !p.Feasible(id) {
			t.Logf("block %d feasible before Optimize, infeasible after", id)
			return false
		}
	}
	return p.Validate() == nil
}
