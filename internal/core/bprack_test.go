package core

import (
	"math/rand/v2"
	"testing"

	"aurora/internal/topology"
)

// rackRandomPlacement places each block randomly but feasibly: first two
// replicas in distinct racks when rho >= 2.
func rackRandomPlacement(t *testing.T, cl *topology.Cluster, specs []BlockSpec, rng *rand.Rand) *Placement {
	t.Helper()
	p := mustPlacement(t, cl, specs)
	for _, s := range specs {
		if err := InitialPlaceRandomized(p, s.ID, s.MinReplicas, rng); err != nil {
			t.Fatalf("random placement of block %d: %v", s.ID, err)
		}
	}
	return p
}

// InitialPlaceRandomized is a test helper: place k replicas at random
// machines while honouring rack spread. Exported-style name kept local to
// tests via this file.
func InitialPlaceRandomized(p *Placement, id BlockID, k int, rng *rand.Rand) error {
	spec, err := p.Spec(id)
	if err != nil {
		return err
	}
	machines := p.Cluster().Machines()
	for attempts := 0; p.ReplicaCount(id) < k && attempts < 20000; attempts++ {
		m := machines[rng.IntN(len(machines))]
		if p.HasReplica(id, m) || p.FreeCapacity(m) == 0 {
			continue
		}
		// Honour spread greedily: while below MinRacks, only accept new racks.
		if p.RackSpread(id) < spec.MinRacks && p.ReplicaCount(id) >= p.RackSpread(id) {
			r, err := p.Cluster().RackOf(m)
			if err != nil {
				return err
			}
			if p.InRack(id, r) && p.RackSpread(id)+k-p.ReplicaCount(id)-1 < spec.MinRacks {
				continue
			}
		}
		if err := p.AddReplica(id, m); err != nil {
			return err
		}
	}
	if p.ReplicaCount(id) < k {
		return ErrMachineFull
	}
	return nil
}

func TestBPRackSearchKeepsFeasibility(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	cl := mustCluster(t, 3, 3, 10)
	specs := randomSpecs(rng, 12, 3, 2, 40)
	p := rackRandomPlacement(t, cl, specs, rng)
	if err := p.CheckFeasible(); err != nil {
		t.Fatalf("starting placement infeasible: %v", err)
	}
	res, err := BPRackSearch(p, SearchOptions{})
	if err != nil {
		t.Fatalf("BPRackSearch: %v", err)
	}
	if err := p.CheckFeasible(); err != nil {
		t.Errorf("search broke feasibility: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if res.FinalCost > res.InitialCost {
		t.Errorf("cost increased: %v -> %v", res.InitialCost, res.FinalCost)
	}
}

// Theorem 4 / Corollary 5: SOL <= OPT + 3*p_max on exactly solvable
// instances, hence SOL <= 4*OPT.
func TestBPRackApproximationGuarantee(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, seed+999))
		cl := mustCluster(t, 2, 2, 4)
		nBlocks := rng.IntN(4) + 2
		specs := randomSpecs(rng, nBlocks, 2, 2, 30)
		p := rackRandomPlacement(t, cl, specs, rng)

		res, err := BPRackSearch(p, SearchOptions{})
		if err != nil {
			t.Fatalf("seed %d: BPRackSearch: %v", seed, err)
		}
		opt, err := ExactOptimal(cl, specs, nil)
		if err != nil {
			t.Fatalf("seed %d: ExactOptimal: %v", seed, err)
		}
		pmax := p.MaxPerReplicaPopularity()
		if res.FinalCost > opt+3*pmax+1e-9 {
			t.Errorf("seed %d: SOL %v > OPT %v + 3*pmax %v", seed, res.FinalCost, opt, 3*pmax)
		}
		if opt > 0 && res.FinalCost > 4*opt+1e-9 {
			t.Errorf("seed %d: SOL %v > 4*OPT %v", seed, res.FinalCost, 4*opt)
		}
		if res.FinalCost < opt-1e-9 {
			t.Errorf("seed %d: SOL %v beat OPT %v", seed, res.FinalCost, opt)
		}
	}
}

func TestBPRackCrossRackMoveHappens(t *testing.T) {
	// Rack 0 overloaded, rack 1 empty except spread anchors. A block
	// with rho=1 should migrate across racks.
	cl := mustCluster(t, 2, 2, 100)
	specs := []BlockSpec{
		spec(1, 50, 1, 1),
		spec(2, 40, 1, 1),
		spec(3, 30, 1, 1),
	}
	p := mustPlacement(t, cl, specs)
	for _, s := range specs {
		if err := p.AddReplica(s.ID, 0); err != nil {
			t.Fatalf("AddReplica: %v", err)
		}
	}
	var kinds []OpKind
	res, err := BPRackSearch(p, SearchOptions{OnOp: func(o Op) { kinds = append(kinds, o.Kind) }})
	if err != nil {
		t.Fatalf("BPRackSearch: %v", err)
	}
	if res.Iterations == 0 {
		t.Fatal("expected cross-rack rebalancing ops")
	}
	sawRackOp := false
	for _, k := range kinds {
		if k == OpRackMove || k == OpRackSwap {
			sawRackOp = true
		}
	}
	if !sawRackOp {
		t.Errorf("no RackMove/RackSwap performed; kinds = %v", kinds)
	}
	// Final max load should be 50 (one block per machine... 3 blocks, 4 machines).
	if got := p.Cost(); got != 50 {
		t.Errorf("Cost = %v, want 50", got)
	}
}

func TestBPRackRespectsRackSpreadDuringSearch(t *testing.T) {
	// Block 1 has rho=2 with exactly 2 replicas: neither replica may move
	// into the other's rack even if it would balance load.
	cl := mustCluster(t, 2, 2, 100)
	specs := []BlockSpec{
		spec(1, 100, 2, 2),
		spec(2, 1, 1, 1),
	}
	p := mustPlacement(t, cl, specs)
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(1, 2); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(2, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if _, err := BPRackSearch(p, SearchOptions{}); err != nil {
		t.Fatalf("BPRackSearch: %v", err)
	}
	if got := p.RackSpread(1); got != 2 {
		t.Errorf("block 1 rack spread = %d, want 2", got)
	}
	if err := p.CheckFeasible(); err != nil {
		t.Errorf("feasibility broken: %v", err)
	}
}

func TestBPRackObserverCountsMovements(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	cl := mustCluster(t, 3, 2, 50)
	specs := randomSpecs(rng, 30, 2, 2, 25)
	p := rackRandomPlacement(t, cl, specs, rng)
	movements := 0
	res, err := BPRackSearch(p, SearchOptions{OnOp: func(o Op) { movements += o.BlockMovements() }})
	if err != nil {
		t.Fatalf("BPRackSearch: %v", err)
	}
	if movements != res.Movements {
		t.Errorf("observer movements %d != result %d", movements, res.Movements)
	}
}

func TestBPRackTerminatesOnSingleMachineRacks(t *testing.T) {
	// Degenerate topology: every rack has exactly one machine, so no
	// intra-rack ops exist; only rack ops apply.
	cl := mustCluster(t, 4, 1, 50)
	specs := []BlockSpec{spec(1, 40, 1, 1), spec(2, 30, 1, 1), spec(3, 20, 1, 1)}
	p := mustPlacement(t, cl, specs)
	for _, s := range specs {
		if err := p.AddReplica(s.ID, 0); err != nil {
			t.Fatalf("AddReplica: %v", err)
		}
	}
	res, err := BPRackSearch(p, SearchOptions{})
	if err != nil {
		t.Fatalf("BPRackSearch: %v", err)
	}
	if got := p.Cost(); got != 40 {
		t.Errorf("Cost = %v, want 40 (one block per machine)", got)
	}
	if res.Iterations == 0 {
		t.Error("expected rack moves on degenerate topology")
	}
}
