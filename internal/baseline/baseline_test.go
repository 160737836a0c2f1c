package baseline

import (
	"errors"
	"math/rand/v2"
	"testing"

	"aurora/internal/core"
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

func mustPlacement(t *testing.T, c *topology.Cluster, specs []core.BlockSpec) *core.Placement {
	t.Helper()
	p, err := core.NewPlacement(c, specs)
	if err != nil {
		t.Fatalf("NewPlacement: %v", err)
	}
	return p
}

func spec(id core.BlockID, pop float64, k, rho int) core.BlockSpec {
	return core.BlockSpec{ID: id, Popularity: pop, MinReplicas: k, MinRacks: rho}
}

func newHDFS(t *testing.T, seed uint64) *HDFSPolicy {
	t.Helper()
	h, err := NewHDFSPolicy(rand.New(rand.NewPCG(seed, seed^0xabcdef)))
	if err != nil {
		t.Fatalf("NewHDFSPolicy: %v", err)
	}
	return h
}

func TestNewHDFSPolicyNilRand(t *testing.T) {
	if _, err := NewHDFSPolicy(nil); !errors.Is(err, ErrNilRand) {
		t.Errorf("err = %v, want ErrNilRand", err)
	}
}

func TestHDFSPlaceWriterLocalAndRemoteRack(t *testing.T) {
	cl := mustCluster(t, 4, 4, 100)
	h := newHDFS(t, 1)
	p := mustPlacement(t, cl, []core.BlockSpec{spec(1, 6, 3, 2)})
	writer := topology.MachineID(5)
	if err := h.Place(p, 1, 3, writer); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if !p.HasReplica(1, writer) {
		t.Errorf("first replica not on writer; replicas = %v", p.Replicas(1))
	}
	if got := p.ReplicaCount(1); got != 3 {
		t.Errorf("ReplicaCount = %d, want 3", got)
	}
	if got := p.RackSpread(1); got < 2 {
		t.Errorf("RackSpread = %d, want >= 2", got)
	}
	if err := p.CheckFeasible(); err != nil {
		t.Errorf("CheckFeasible: %v", err)
	}
}

func TestHDFSPlaceNoWriter(t *testing.T) {
	cl := mustCluster(t, 3, 3, 50)
	h := newHDFS(t, 2)
	p := mustPlacement(t, cl, []core.BlockSpec{spec(1, 6, 3, 2)})
	if err := h.Place(p, 1, 3, topology.NoMachine); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if got := p.ReplicaCount(1); got != 3 {
		t.Errorf("ReplicaCount = %d, want 3", got)
	}
	if got := p.RackSpread(1); got < 2 {
		t.Errorf("RackSpread = %d, want >= 2", got)
	}
}

func TestHDFSPlaceManyBlocksStaysFeasible(t *testing.T) {
	cl := mustCluster(t, 3, 5, 200)
	h := newHDFS(t, 3)
	var specs []core.BlockSpec
	for i := 1; i <= 100; i++ {
		specs = append(specs, spec(core.BlockID(i), float64(i), 3, 2))
	}
	p := mustPlacement(t, cl, specs)
	for _, s := range specs {
		if err := h.Place(p, s.ID, 3, topology.NoMachine); err != nil {
			t.Fatalf("Place %d: %v", s.ID, err)
		}
	}
	if err := p.CheckFeasible(); err != nil {
		t.Errorf("CheckFeasible: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestHDFSPlaceRandomnessSpreadsLoad(t *testing.T) {
	// Random placement should use many machines, unlike a greedy pile-up.
	cl := mustCluster(t, 2, 10, 1000)
	h := newHDFS(t, 4)
	var specs []core.BlockSpec
	for i := 1; i <= 200; i++ {
		specs = append(specs, spec(core.BlockID(i), 1, 3, 2))
	}
	p := mustPlacement(t, cl, specs)
	for _, s := range specs {
		if err := h.Place(p, s.ID, 3, topology.NoMachine); err != nil {
			t.Fatalf("Place: %v", err)
		}
	}
	usedMachines := 0
	for _, m := range cl.Machines() {
		if p.Used(m) > 0 {
			usedMachines++
		}
	}
	if usedMachines < cl.NumMachines()*3/4 {
		t.Errorf("only %d/%d machines used by random placement", usedMachines, cl.NumMachines())
	}
}

func TestHDFSPlaceFullCluster(t *testing.T) {
	cl := mustCluster(t, 1, 2, 1)
	h := newHDFS(t, 5)
	p := mustPlacement(t, cl, []core.BlockSpec{spec(1, 1, 2, 1), spec(2, 1, 1, 1)})
	if err := h.Place(p, 1, 2, topology.NoMachine); err != nil {
		t.Fatalf("Place: %v", err)
	}
	if err := h.Place(p, 2, 1, topology.NoMachine); !errors.Is(err, ErrNoCapacity) {
		t.Errorf("full-cluster err = %v, want ErrNoCapacity", err)
	}
}

func TestScarlettFactorsPriority(t *testing.T) {
	s := &Scarlett{Mode: Priority, Budget: 12}
	specs := []core.BlockSpec{
		spec(1, 90, 1, 1),
		spec(2, 9, 1, 1),
		spec(3, 1, 1, 1),
	}
	// autoTarget = 100/12 ≈ 8.33; desired: ceil(90/8.33)=11, ceil(9/8.33)=2, 1.
	// Priority: block1 gets 11 (budget 3+10... used=3 min, +10 extra → 12? want=10, avail=9).
	factors, err := s.Factors(specs, 100)
	if err != nil {
		t.Fatalf("Factors: %v", err)
	}
	total := factors[1] + factors[2] + factors[3]
	if total > 12 {
		t.Errorf("total factors %d exceed budget 12", total)
	}
	if factors[1] <= factors[2] || factors[2] < factors[3] {
		t.Errorf("factors not popularity-ordered: %v", factors)
	}
	if factors[1] < 8 {
		t.Errorf("priority mode gave hot block only %d replicas: %v", factors[1], factors)
	}
}

func TestScarlettFactorsRoundRobin(t *testing.T) {
	s := &Scarlett{Mode: RoundRobin, Budget: 10}
	specs := []core.BlockSpec{
		spec(1, 100, 1, 1), // target 300/10 = 30: desires ceil(100/30) = 4
		spec(2, 100, 1, 1), // desires 4
		spec(3, 100, 1, 1), // desires 4
	}
	factors, err := s.Factors(specs, 100)
	if err != nil {
		t.Fatalf("Factors: %v", err)
	}
	// Round robin over 3 equal blocks desiring 12 with budget 10: one
	// replica per block per pass, so 4, 3, 3 (Priority would give 4, 4, 2).
	for id, want := range map[core.BlockID]int{1: 4, 2: 3, 3: 3} {
		if factors[id] != want {
			t.Errorf("factors[%d] = %d, want %d (even split): %v", id, factors[id], want, factors)
		}
	}
}

func TestScarlettFactorsErrors(t *testing.T) {
	s := &Scarlett{Mode: Priority, Budget: 0}
	if _, err := s.Factors(nil, 10); err == nil {
		t.Error("zero budget accepted")
	}
	s = &Scarlett{Mode: Priority, Budget: 1}
	if _, err := s.Factors([]core.BlockSpec{spec(1, 1, 3, 1)}, 10); !errors.Is(err, core.ErrBudgetTooSmall) {
		t.Errorf("err = %v, want ErrBudgetTooSmall", err)
	}
	s = &Scarlett{Mode: Priority, Budget: 5}
	if _, err := s.Factors(nil, 0); err == nil {
		t.Error("zero maxPerBlock accepted")
	}
}

func TestScarlettFactorsRespectsCap(t *testing.T) {
	s := &Scarlett{Mode: Priority, Budget: 100}
	specs := []core.BlockSpec{spec(1, 1000, 1, 1)} // desires 1000/(1000/100) = 100
	factors, err := s.Factors(specs, 5)
	if err != nil {
		t.Fatalf("Factors: %v", err)
	}
	if factors[1] != 5 {
		t.Errorf("factors[1] = %d, want cap 5", factors[1])
	}
}

func TestScarlettRebalanceReplicatesHotBlock(t *testing.T) {
	cl := mustCluster(t, 2, 4, 50)
	rng := rand.New(rand.NewPCG(9, 9))
	h := newHDFS(t, 9)
	_ = rng
	specs := []core.BlockSpec{
		spec(1, 900, 3, 2),
		spec(2, 10, 3, 2),
	}
	p := mustPlacement(t, cl, specs)
	for _, s := range specs {
		if err := h.Place(p, s.ID, 3, topology.NoMachine); err != nil {
			t.Fatalf("Place: %v", err)
		}
	}
	s := &Scarlett{Mode: Priority, Budget: 10}
	res, err := s.Rebalance(p)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if res.Replications == 0 {
		t.Error("no replications performed")
	}
	if got := p.ReplicaCount(1); got <= 3 {
		t.Errorf("hot block count = %d, want > 3", got)
	}
	if got := p.ReplicaCount(2); got != 3 {
		t.Errorf("cold block count = %d, want 3", got)
	}
	if p.TotalReplicas() > 10 {
		t.Errorf("total replicas %d exceed budget 10", p.TotalReplicas())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestScarlettRebalanceIdempotentWhenSatisfied(t *testing.T) {
	cl := mustCluster(t, 2, 4, 50)
	h := newHDFS(t, 10)
	specs := []core.BlockSpec{spec(1, 10, 3, 2)}
	p := mustPlacement(t, cl, specs)
	if err := h.Place(p, 1, 3, topology.NoMachine); err != nil {
		t.Fatalf("Place: %v", err)
	}
	s := &Scarlett{Mode: Priority, Budget: 5}
	first, err := s.Rebalance(p)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	second, err := s.Rebalance(p)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if second.Replications != 0 {
		t.Errorf("second rebalance copied %d replicas (first %d), want 0", second.Replications, first.Replications)
	}
}

// TestScarlettEvictsSurplusForCapacity pins Scarlett's lazy deletion to
// Aurora's: with the budget far from binding but every machine without
// the hot block full of a cold block's surplus, the replicate step
// evicts that surplus to make room for the hot block's copies.
func TestScarlettEvictsSurplusForCapacity(t *testing.T) {
	cl := mustCluster(t, 2, 2, 2)
	specs := []core.BlockSpec{
		spec(1, 1000, 1, 1), // hot, on machine 0
		spec(2, 1, 1, 1),    // cold, on machines 1-3: two replicas of surplus
	}
	for m := 0; m < 4; m++ {
		specs = append(specs, spec(core.BlockID(10+m), 1, 1, 1)) // one filler per machine
	}
	p := mustPlacement(t, cl, specs)
	place := func(id core.BlockID, m topology.MachineID) {
		t.Helper()
		if err := p.AddReplica(id, m); err != nil {
			t.Fatalf("AddReplica(%d, %d): %v", id, m, err)
		}
	}
	place(1, 0)
	for m := topology.MachineID(1); m < 4; m++ {
		place(2, m)
	}
	for m := topology.MachineID(0); m < 4; m++ {
		place(core.BlockID(10+m), m)
	}

	s := &Scarlett{Mode: Priority, Budget: 20}
	res, err := s.Rebalance(p)
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if res.Replications == 0 {
		t.Fatalf("hot block never copied (factors %v): surplus not evicted for capacity", res.Factors)
	}
	if res.Evictions != res.Replications {
		t.Errorf("evictions = %d, want one per copy (%d) on a full cluster", res.Evictions, res.Replications)
	}
	if got := p.ReplicaCount(1); got != 1+res.Replications {
		t.Errorf("hot block count = %d, want %d", got, 1+res.Replications)
	}
	if got := p.ReplicaCount(2); got < 1 {
		t.Errorf("cold block count = %d, below MinReplicas", got)
	}
	if err := p.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}
