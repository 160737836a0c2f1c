package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"aurora/internal/topology"
)

func mustCluster(t *testing.T, racks, perRack, capacity int) *topology.Cluster {
	t.Helper()
	c, err := topology.Uniform(racks, perRack, capacity, 2)
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	return c
}

func mustPlacement(t *testing.T, c *topology.Cluster, specs []BlockSpec) *Placement {
	t.Helper()
	p, err := NewPlacement(c, specs)
	if err != nil {
		t.Fatalf("NewPlacement: %v", err)
	}
	return p
}

func spec(id BlockID, pop float64, k, rho int) BlockSpec {
	return BlockSpec{ID: id, Popularity: pop, MinReplicas: k, MinRacks: rho}
}

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name string
		s    BlockSpec
		ok   bool
	}{
		{"valid", spec(1, 10, 3, 2), true},
		{"negative popularity", spec(1, -1, 3, 2), false},
		{"zero replicas", spec(1, 1, 0, 1), false},
		{"zero racks", spec(1, 1, 3, 0), false},
		{"racks exceed replicas", spec(1, 1, 2, 3), false},
		{"zero popularity ok", spec(1, 0, 1, 1), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.s.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() err = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestAddBlockRejectsImpossibleRequirements(t *testing.T) {
	c := mustCluster(t, 2, 2, 10) // 2 racks, 4 machines
	p := mustPlacement(t, c, nil)
	if err := p.AddBlock(spec(1, 1, 3, 3)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("3 racks on 2-rack cluster: err = %v, want ErrBadSpec", err)
	}
	if err := p.AddBlock(spec(2, 1, 5, 2)); !errors.Is(err, ErrBadSpec) {
		t.Errorf("5 replicas on 4-machine cluster: err = %v, want ErrBadSpec", err)
	}
	if err := p.AddBlock(spec(3, 1, 3, 2)); err != nil {
		t.Errorf("valid block rejected: %v", err)
	}
	if err := p.AddBlock(spec(3, 1, 3, 2)); !errors.Is(err, ErrDuplicateBlock) {
		t.Errorf("duplicate err = %v, want ErrDuplicateBlock", err)
	}
}

func TestAddReplicaDividesLoad(t *testing.T) {
	c := mustCluster(t, 2, 2, 10)
	p := mustPlacement(t, c, []BlockSpec{spec(1, 12, 3, 2)})
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if got := p.Load(0); got != 12 {
		t.Errorf("Load(0) after 1 replica = %v, want 12", got)
	}
	if err := p.AddReplica(1, 1); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if got := p.Load(0); got != 6 {
		t.Errorf("Load(0) after 2 replicas = %v, want 6", got)
	}
	if err := p.AddReplica(1, 2); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	for m := topology.MachineID(0); m < 3; m++ {
		if got := p.Load(m); math.Abs(got-4) > 1e-12 {
			t.Errorf("Load(%d) after 3 replicas = %v, want 4", m, got)
		}
	}
	if got := p.PerReplicaPopularity(1); math.Abs(got-4) > 1e-12 {
		t.Errorf("PerReplicaPopularity = %v, want 4", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestAddReplicaErrors(t *testing.T) {
	c := mustCluster(t, 1, 2, 1) // capacity 1 per machine
	p := mustPlacement(t, c, []BlockSpec{spec(1, 5, 1, 1), spec(2, 5, 1, 1)})
	if err := p.AddReplica(99, 0); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("unknown block err = %v", err)
	}
	if err := p.AddReplica(1, topology.MachineID(77)); !errors.Is(err, topology.ErrUnknownMachine) {
		t.Errorf("unknown machine err = %v", err)
	}
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(1, 0); !errors.Is(err, ErrAlreadyPlaced) {
		t.Errorf("duplicate replica err = %v, want ErrAlreadyPlaced", err)
	}
	if err := p.AddReplica(2, 0); !errors.Is(err, ErrMachineFull) {
		t.Errorf("full machine err = %v, want ErrMachineFull", err)
	}
}

func TestRemoveReplicaRescalesLoad(t *testing.T) {
	c := mustCluster(t, 2, 2, 10)
	p := mustPlacement(t, c, []BlockSpec{spec(1, 12, 3, 2)})
	for _, m := range []topology.MachineID{0, 1, 2} {
		if err := p.AddReplica(1, m); err != nil {
			t.Fatalf("AddReplica: %v", err)
		}
	}
	if err := p.RemoveReplica(1, 1); err != nil {
		t.Fatalf("RemoveReplica: %v", err)
	}
	if got := p.Load(0); math.Abs(got-6) > 1e-12 {
		t.Errorf("Load(0) = %v, want 6", got)
	}
	if got := p.Load(1); math.Abs(got) > 1e-12 {
		t.Errorf("Load(1) = %v, want 0", got)
	}
	if err := p.RemoveReplica(1, 1); !errors.Is(err, ErrNotPlaced) {
		t.Errorf("double remove err = %v, want ErrNotPlaced", err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMoveReplicaPreservesCountAndLoadSum(t *testing.T) {
	c := mustCluster(t, 2, 2, 10)
	p := mustPlacement(t, c, []BlockSpec{spec(1, 9, 3, 2)})
	for _, m := range []topology.MachineID{0, 1, 2} {
		if err := p.AddReplica(1, m); err != nil {
			t.Fatalf("AddReplica: %v", err)
		}
	}
	before := p.TotalReplicas()
	if err := p.MoveReplica(1, 0, 3); err != nil {
		t.Fatalf("MoveReplica: %v", err)
	}
	if got := p.TotalReplicas(); got != before {
		t.Errorf("TotalReplicas = %d, want %d", got, before)
	}
	if p.HasReplica(1, 0) || !p.HasReplica(1, 3) {
		t.Error("replica did not move from 0 to 3")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestMoveReplicaRackConstraint(t *testing.T) {
	// 2 racks {0,1} and {2,3}. Block spans both racks with replicas on
	// 0 and 2; moving 2 -> 1 would collapse to one rack.
	c := mustCluster(t, 2, 2, 10)
	p := mustPlacement(t, c, []BlockSpec{spec(1, 4, 2, 2)})
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(1, 2); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.MoveReplica(1, 2, 1); !errors.Is(err, ErrRackConstraint) {
		t.Errorf("rack-collapsing move err = %v, want ErrRackConstraint", err)
	}
	if p.CanMove(1, 2, 1) {
		t.Error("CanMove allowed a rack-collapsing move")
	}
	// Moving within the same rack is fine.
	if err := p.MoveReplica(1, 2, 3); err != nil {
		t.Errorf("same-rack move failed: %v", err)
	}
}

func TestMoveAllowedWhenAlreadyInfeasible(t *testing.T) {
	// If a block is under rack spread already (spread < MinRacks), moves
	// that don't fix it are still allowed: the placement must not
	// deadlock while the optimizer repairs it.
	c := mustCluster(t, 2, 2, 10)
	p := mustPlacement(t, c, []BlockSpec{spec(1, 4, 2, 2)})
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(1, 1); err != nil { // both in rack 0: infeasible
		t.Fatalf("AddReplica: %v", err)
	}
	if p.Feasible(1) {
		t.Fatal("block unexpectedly feasible")
	}
	if err := p.MoveReplica(1, 1, 0+2); err != nil { // to rack 1, improves spread
		t.Errorf("repairing move failed: %v", err)
	}
	if !p.Feasible(1) {
		t.Error("block still infeasible after repair")
	}
}

func TestSwapReplicas(t *testing.T) {
	c := mustCluster(t, 1, 2, 1) // two machines, capacity 1 each: only swaps possible
	p := mustPlacement(t, c, []BlockSpec{spec(1, 10, 1, 1), spec(2, 2, 1, 1)})
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(2, 1); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if !p.CanSwap(1, 0, 2, 1) {
		t.Fatal("CanSwap = false, want true")
	}
	if err := p.SwapReplicas(1, 0, 2, 1); err != nil {
		t.Fatalf("SwapReplicas: %v", err)
	}
	if !p.HasReplica(1, 1) || !p.HasReplica(2, 0) {
		t.Error("swap did not exchange replicas")
	}
	if got := p.Load(0); got != 2 {
		t.Errorf("Load(0) = %v, want 2", got)
	}
	if got := p.Load(1); got != 10 {
		t.Errorf("Load(1) = %v, want 10", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestSwapErrors(t *testing.T) {
	c := mustCluster(t, 1, 3, 10)
	p := mustPlacement(t, c, []BlockSpec{spec(1, 1, 1, 1), spec(2, 1, 1, 1)})
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(2, 1); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.SwapReplicas(1, 0, 1, 1); err == nil {
		t.Error("self-swap accepted")
	}
	if err := p.SwapReplicas(1, 0, 2, 0); err == nil {
		t.Error("same-machine swap accepted")
	}
	if err := p.SwapReplicas(1, 2, 2, 1); !errors.Is(err, ErrNotPlaced) {
		t.Errorf("swap from non-holder err = %v, want ErrNotPlaced", err)
	}
	// i already on n
	if err := p.AddReplica(1, 1); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.SwapReplicas(1, 0, 2, 1); !errors.Is(err, ErrAlreadyPlaced) {
		t.Errorf("swap onto holder err = %v, want ErrAlreadyPlaced", err)
	}
	if p.CanSwap(1, 0, 2, 1) {
		t.Error("CanSwap allowed swap onto existing holder")
	}
}

func TestSetPopularityRescales(t *testing.T) {
	c := mustCluster(t, 1, 2, 10)
	p := mustPlacement(t, c, []BlockSpec{spec(1, 10, 1, 1)})
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(1, 1); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.SetPopularity(1, 30); err != nil {
		t.Fatalf("SetPopularity: %v", err)
	}
	if got := p.Load(0); got != 15 {
		t.Errorf("Load(0) = %v, want 15", got)
	}
	if err := p.SetPopularity(1, -1); !errors.Is(err, ErrBadSpec) {
		t.Errorf("negative popularity err = %v, want ErrBadSpec", err)
	}
	if err := p.SetPopularity(99, 1); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("unknown block err = %v, want ErrUnknownBlock", err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestDeleteBlock(t *testing.T) {
	c := mustCluster(t, 1, 2, 10)
	p := mustPlacement(t, c, []BlockSpec{spec(1, 10, 1, 1), spec(2, 4, 1, 1)})
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(2, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.DeleteBlock(1); err != nil {
		t.Fatalf("DeleteBlock: %v", err)
	}
	if got := p.Load(0); got != 4 {
		t.Errorf("Load(0) = %v, want 4", got)
	}
	if got := p.NumBlocks(); got != 1 {
		t.Errorf("NumBlocks = %d, want 1", got)
	}
	if err := p.DeleteBlock(1); !errors.Is(err, ErrUnknownBlock) {
		t.Errorf("double delete err = %v, want ErrUnknownBlock", err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestCheckFeasible(t *testing.T) {
	c := mustCluster(t, 2, 2, 10)
	p := mustPlacement(t, c, []BlockSpec{spec(1, 4, 2, 2)})
	if err := p.CheckFeasible(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("unplaced block feasible: %v", err)
	}
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(1, 2); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.CheckFeasible(); err != nil {
		t.Errorf("CheckFeasible = %v, want nil", err)
	}
}

// A clone shares no mutable state with its original: mutating every
// block of the clone — popularity, holders appended past the spare slot
// Clone leaves, holders removed, moved and swapped, blocks deleted and
// added, machines filled — leaves the original exactly as it was.
func TestCloneIsIndependent(t *testing.T) {
	c := mustCluster(t, 3, 3, 12) // machines 0-2 in rack 0, 3-5 in rack 1, 6-8 in rack 2
	rng := rand.New(rand.NewPCG(11, 11))
	var specs []BlockSpec
	for i := 1; i <= 20; i++ {
		specs = append(specs, spec(BlockID(i), float64(rng.IntN(50)), 2, 2))
	}
	p := mustPlacement(t, c, specs)
	for _, s := range specs {
		for p.ReplicaCount(s.ID) < 2 || p.RackSpread(s.ID) < 2 {
			m := topology.MachineID(rng.IntN(c.NumMachines()))
			if p.RackSpread(s.ID) == 1 && p.InRack(s.ID, c.MustMachine(m).Rack) {
				continue
			}
			_ = p.AddReplica(s.ID, m)
		}
	}
	type blockView struct {
		pop      float64
		replicas []topology.MachineID
	}
	view := func(p *Placement) (map[BlockID]blockView, []float64) {
		out := make(map[BlockID]blockView)
		for _, id := range p.Blocks() {
			out[id] = blockView{pop: p.PerReplicaPopularity(id), replicas: p.Replicas(id)}
		}
		return out, p.Loads()
	}
	wantBlocks, wantLoads := view(p)

	clone := p.Clone()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range clone.Blocks() {
		must(clone.SetPopularity(id, float64(id)*3))
		// Append holders until the block is on every machine with room:
		// well past the one spare slot its carved holder list has.
		for m := topology.MachineID(0); int(m) < c.NumMachines(); m++ {
			if !clone.HasReplica(id, m) && clone.FreeCapacity(m) > 0 {
				must(clone.AddReplica(id, m))
			}
		}
		holders := clone.Replicas(id)
		must(clone.RemoveReplica(id, holders[0]))
		if id%3 == 0 {
			must(clone.DeleteBlock(id))
		}
	}
	must(clone.AddBlock(spec(99, 7, 1, 1)))
	must(clone.AddReplica(99, 0))
	if err := clone.Validate(); err != nil {
		t.Errorf("clone Validate: %v", err)
	}

	if err := p.Validate(); err != nil {
		t.Fatalf("original Validate after the clone's mutations: %v", err)
	}
	gotBlocks, gotLoads := view(p)
	if len(gotBlocks) != len(wantBlocks) {
		t.Fatalf("original has %d blocks, had %d", len(gotBlocks), len(wantBlocks))
	}
	for id, want := range wantBlocks {
		got := gotBlocks[id]
		if math.Float64bits(got.pop) != math.Float64bits(want.pop) || !slices.Equal(got.replicas, want.replicas) {
			t.Errorf("block %d: original now %+v, was %+v", id, got, want)
		}
	}
	if !slices.Equal(gotLoads, wantLoads) {
		t.Errorf("original loads now %v, were %v", gotLoads, wantLoads)
	}
}

// Rebase makes each named block of a plan what the live placement holds
// — replica set, k and ρ, presence — and keeps the plan's popularity;
// every other block keeps the plan's replica set.
func TestRebaseTakesLiveForNamedBlocks(t *testing.T) {
	c := mustCluster(t, 2, 3, 10) // machines 0-2 in rack 0, 3-5 in rack 1
	live := mustPlacement(t, c, []BlockSpec{spec(1, 4, 2, 2), spec(2, 6, 2, 2), spec(3, 8, 2, 2), spec(4, 1, 2, 2)})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []BlockID{1, 2, 3, 4} {
		must(live.AddReplica(id, topology.MachineID(id%3)))
		must(live.AddReplica(id, topology.MachineID(3+id%3)))
	}
	live.TrackChanges()
	plan := live.Clone()
	// The plan: new popularities, a copy of block 1, a move of block 2
	// and a copy of block 4, which live is about to change.
	for _, id := range plan.Blocks() {
		must(plan.SetPopularity(id, float64(10*id)))
	}
	must(plan.AddReplica(1, 2))
	must(plan.MoveReplica(2, 2, 0))
	must(plan.AddReplica(4, 0))

	// Live, meanwhile: block 3 deleted, block 4 re-homed and raised to
	// k = 3, block 5 created.
	must(live.DeleteBlock(3))
	must(live.MoveReplica(4, 1, 2))
	must(live.SetMinReplicas(4, 3))
	must(live.AddReplica(4, 5))
	must(live.AddBlock(spec(5, 2, 1, 1)))
	must(live.AddReplica(5, 1))
	touched := live.DrainChanges(nil)
	slices.Sort(touched)
	if want := []BlockID{3, 4, 5}; !slices.Equal(touched, want) {
		t.Fatalf("live recorded %v, want %v", touched, want)
	}

	must(plan.Rebase(live, touched))
	if err := plan.Validate(); err != nil {
		t.Fatalf("rebased plan Validate: %v", err)
	}
	for _, tc := range []struct {
		id       BlockID
		replicas []topology.MachineID
		pop      float64
		k        int
	}{
		{1, []topology.MachineID{1, 2, 4}, 10, 2}, // the plan's copy
		{2, []topology.MachineID{0, 5}, 20, 2},    // the plan's move
		{4, []topology.MachineID{2, 4, 5}, 40, 3}, // live's set and k, the plan's popularity
		{5, []topology.MachineID{1}, 2, 1},        // created live
	} {
		sp, err := plan.Spec(tc.id)
		if err != nil {
			t.Fatalf("block %d: %v", tc.id, err)
		}
		if got := plan.Replicas(tc.id); !slices.Equal(got, tc.replicas) || sp.Popularity != tc.pop || sp.MinReplicas != tc.k {
			t.Errorf("block %d: replicas %v, popularity %v, k %d; want %v, %v, %d",
				tc.id, got, sp.Popularity, sp.MinReplicas, tc.replicas, tc.pop, tc.k)
		}
	}
	if _, err := plan.Spec(3); err == nil {
		t.Error("block 3, deleted live, survived the rebase")
	}

	// A live replica on a machine the plan filled does not fit.
	full := live.Clone()
	must(live.AddBlock(spec(6, 1, 1, 1)))
	must(live.AddReplica(6, 0))
	for id := BlockID(100); full.FreeCapacity(0) > 0; id++ {
		must(full.AddBlock(spec(id, 1, 1, 1)))
		must(full.AddReplica(id, 0))
	}
	if err := full.Rebase(live, []BlockID{6}); !errors.Is(err, ErrMachineFull) {
		t.Errorf("rebase onto a full machine: %v, want ErrMachineFull", err)
	}
}

func TestExtremeMachineSelectors(t *testing.T) {
	c := mustCluster(t, 2, 2, 10)
	p := mustPlacement(t, c, []BlockSpec{spec(1, 10, 1, 1), spec(2, 4, 1, 1)})
	if err := p.AddReplica(1, 1); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(2, 2); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if got := p.MaxLoadedMachine(); got != 1 {
		t.Errorf("MaxLoadedMachine = %d, want 1", got)
	}
	if got := p.MinLoadedMachine(); got != 0 {
		t.Errorf("MinLoadedMachine = %d, want 0 (ties break low)", got)
	}
	maxR0, err := p.MaxLoadedMachineInRack(0)
	if err != nil || maxR0 != 1 {
		t.Errorf("MaxLoadedMachineInRack(0) = %d, %v; want 1", maxR0, err)
	}
	minR1, err := p.MinLoadedMachineInRack(1)
	if err != nil || minR1 != 3 {
		t.Errorf("MinLoadedMachineInRack(1) = %d, %v; want 3", minR1, err)
	}
	if _, err := p.MaxLoadedMachineInRack(9); err == nil {
		t.Error("MaxLoadedMachineInRack(9) succeeded, want error")
	}
}

// Property test: any random sequence of add/remove/move/swap operations
// keeps the incremental bookkeeping consistent with a from-scratch
// recomputation, never exceeds capacity, and total load equals the sum of
// placed blocks' popularities.
func TestRandomOperationsKeepInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		cl, err := topology.Uniform(3, 3, 4, 1)
		if err != nil {
			return false
		}
		var specs []BlockSpec
		for i := 0; i < 8; i++ {
			specs = append(specs, BlockSpec{
				ID:          BlockID(i),
				Popularity:  float64(rng.IntN(20) + 1),
				MinReplicas: 1 + i%3,
				MinRacks:    1 + i%3,
			})
		}
		p, err := NewPlacement(cl, specs)
		if err != nil {
			return false
		}
		machines := cl.Machines()
		for step := 0; step < 200; step++ {
			id := BlockID(rng.IntN(8))
			m := machines[rng.IntN(len(machines))]
			n := machines[rng.IntN(len(machines))]
			switch rng.IntN(4) {
			case 0:
				_ = p.AddReplica(id, m) // errors fine (full/dup)
			case 1:
				_ = p.RemoveReplica(id, m)
			case 2:
				_ = p.MoveReplica(id, m, n)
			case 3:
				j := BlockID(rng.IntN(8))
				_ = p.SwapReplicas(id, m, j, n)
			}
		}
		if err := p.Validate(); err != nil {
			t.Logf("Validate: %v", err)
			return false
		}
		// RemovalKeepsSpread must agree with a from-scratch rack recount
		// of the block's other holders, for holders and non-holders alike.
		for _, s := range specs {
			for _, m := range machines {
				racks := make(map[topology.RackID]bool)
				for _, h := range p.Replicas(s.ID) {
					if h != m {
						racks[cl.MustMachine(h).Rack] = true
					}
				}
				want := p.HasReplica(s.ID, m) && len(racks) >= s.MinRacks
				if got := p.RemovalKeepsSpread(s.ID, m); got != want {
					t.Logf("RemovalKeepsSpread(%d, %d) = %v, recount of %v says %v", s.ID, m, got, p.Replicas(s.ID), want)
					return false
				}
			}
		}
		// Total machine load must equal the sum of placed popularities.
		var wantTotal float64
		for _, id := range p.Blocks() {
			if p.ReplicaCount(id) > 0 {
				s, err := p.Spec(id)
				if err != nil {
					return false
				}
				wantTotal += s.Popularity
			}
		}
		var gotTotal float64
		for _, l := range p.Loads() {
			gotTotal += l
		}
		return math.Abs(gotTotal-wantTotal) < 1e-6*(1+wantTotal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TrackChanges records each block whose replica set or spec changed,
// once per drain, through every mutation that can change either; a
// popularity refresh and an untracked placement or clone record
// nothing.
func TestTrackChangesRecordsEveryDesiredSetChange(t *testing.T) {
	c := mustCluster(t, 2, 2, 10) // machines 0,1 in rack 0; 2,3 in rack 1
	p := mustPlacement(t, c, []BlockSpec{spec(1, 4, 1, 1), spec(2, 4, 1, 1), spec(3, 4, 1, 1)})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	drain := func() []BlockID {
		got := p.DrainChanges(nil)
		slices.Sort(got)
		return got
	}
	must(p.AddReplica(1, 0))
	if got := drain(); len(got) != 0 {
		t.Fatalf("untracked placement recorded %v", got)
	}
	p.TrackChanges()
	for _, tc := range []struct {
		name   string
		mutate func()
		want   []BlockID
	}{
		{"add block", func() { must(p.AddBlock(spec(4, 1, 1, 1))) }, []BlockID{4}},
		{"add replica", func() { must(p.AddReplica(2, 2)); must(p.AddReplica(2, 1)) }, []BlockID{2}},
		{"remove replica", func() { must(p.RemoveReplica(2, 1)) }, []BlockID{2}},
		{"move replica", func() { must(p.MoveReplica(1, 0, 3)) }, []BlockID{1}},
		{"swap replicas", func() { must(p.SwapReplicas(1, 3, 2, 2)) }, []BlockID{1, 2}},
		{"set min replicas", func() { must(p.SetMinReplicas(3, 2)) }, []BlockID{3}},
		{"set popularity", func() { must(p.SetPopularity(1, 9)) }, nil},
		{"delete block", func() { must(p.DeleteBlock(4)) }, []BlockID{4}},
		{"clone", func() {
			cl := p.Clone()
			must(cl.AddReplica(3, 0))
			if got := cl.DrainChanges(nil); len(got) != 0 {
				t.Errorf("clone recorded %v", got)
			}
		}, nil},
	} {
		tc.mutate()
		if got := drain(); !slices.Equal(got, tc.want) {
			t.Errorf("%s recorded %v, want %v", tc.name, got, tc.want)
		}
	}
}
