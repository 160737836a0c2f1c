package sched

import (
	"errors"
	"testing"

	"aurora/internal/core"
	"aurora/internal/topology"
)

func setup(t *testing.T) (*topology.Cluster, *core.Placement, *Slots) {
	t.Helper()
	cl, err := topology.Uniform(2, 2, 10, 2) // machines 0,1 rack0; 2,3 rack1; 2 slots each
	if err != nil {
		t.Fatalf("Uniform: %v", err)
	}
	p, err := core.NewPlacement(cl, []core.BlockSpec{
		{ID: 1, Popularity: 5, MinReplicas: 1, MinRacks: 1},
	})
	if err != nil {
		t.Fatalf("NewPlacement: %v", err)
	}
	return cl, p, NewSlots(cl)
}

func TestSlotsAccounting(t *testing.T) {
	cl, _, s := setup(t)
	if got := s.TotalFree(); got != 8 {
		t.Fatalf("TotalFree = %d, want 8", got)
	}
	if !s.Acquire(0) || !s.Acquire(0) {
		t.Fatal("could not acquire 2 slots on machine 0")
	}
	if s.Acquire(0) {
		t.Error("acquired a third slot on a 2-slot machine")
	}
	if got := s.Free(0); got != 0 {
		t.Errorf("Free(0) = %d, want 0", got)
	}
	s.Release(0)
	if got := s.Free(0); got != 1 {
		t.Errorf("Free(0) after release = %d, want 1", got)
	}
	if got := s.TotalFree(); got != 7 {
		t.Errorf("TotalFree = %d, want 7", got)
	}
	// Out-of-range IDs are inert.
	if s.Acquire(topology.MachineID(99)) {
		t.Error("acquired slot on unknown machine")
	}
	s.Release(topology.MachineID(99))
	if got := s.TotalFree(); got != 7 {
		t.Errorf("TotalFree after bogus release = %d, want 7", got)
	}
	_ = cl
}

func TestPickNodeLocal(t *testing.T) {
	cl, p, s := setup(t)
	if err := p.AddReplica(1, 2); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	a, err := Pick(cl, s, p.Replicas(1))
	if err != nil {
		t.Fatalf("Pick: %v", err)
	}
	if a.Level != NodeLocal || a.Machine != 2 {
		t.Errorf("Pick = %+v, want node-local on machine 2", a)
	}
}

func TestPickRackLocalWhenHolderBusy(t *testing.T) {
	cl, p, s := setup(t)
	if err := p.AddReplica(1, 2); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	// Fill machine 2's slots.
	s.Acquire(2)
	s.Acquire(2)
	a, err := Pick(cl, s, p.Replicas(1))
	if err != nil {
		t.Fatalf("Pick: %v", err)
	}
	if a.Level != RackLocal || a.Machine != 3 {
		t.Errorf("Pick = %+v, want rack-local on machine 3", a)
	}
}

func TestPickRemoteWhenRackBusy(t *testing.T) {
	cl, p, s := setup(t)
	if err := p.AddReplica(1, 2); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	for _, m := range []topology.MachineID{2, 2, 3, 3} {
		s.Acquire(m)
	}
	a, err := Pick(cl, s, p.Replicas(1))
	if err != nil {
		t.Fatalf("Pick: %v", err)
	}
	if a.Level != Remote {
		t.Errorf("Pick level = %v, want remote", a.Level)
	}
	if a.Machine != 0 && a.Machine != 1 {
		t.Errorf("Pick machine = %d, want rack-0 machine", a.Machine)
	}
}

func TestPickPrefersFreerMachine(t *testing.T) {
	cl, p, s := setup(t)
	if err := p.AddReplica(1, 0); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	if err := p.AddReplica(1, 1); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	s.Acquire(0) // machine 0 has 1 free, machine 1 has 2 free
	a, err := Pick(cl, s, p.Replicas(1))
	if err != nil {
		t.Fatalf("Pick: %v", err)
	}
	if a.Machine != 1 {
		t.Errorf("Pick machine = %d, want 1 (more free slots)", a.Machine)
	}
}

func TestPickNoSlots(t *testing.T) {
	cl, p, s := setup(t)
	for _, m := range []topology.MachineID{0, 0, 1, 1, 2, 2, 3, 3} {
		if !s.Acquire(m) {
			t.Fatalf("setup: could not fill slot on %d", m)
		}
	}
	if _, err := Pick(cl, s, p.Replicas(1)); !errors.Is(err, ErrNoSlots) {
		t.Errorf("Pick err = %v, want ErrNoSlots", err)
	}
}

func TestPickUnplacedBlockGoesRemote(t *testing.T) {
	// A block with no replicas (e.g. metadata-only) still schedules.
	cl, p, s := setup(t)
	a, err := Pick(cl, s, p.Replicas(1))
	if err != nil {
		t.Fatalf("Pick: %v", err)
	}
	if a.Level != Remote {
		t.Errorf("Pick level = %v, want remote for unplaced block", a.Level)
	}
}

func TestLevelString(t *testing.T) {
	tests := []struct {
		l    Level
		want string
	}{
		{NodeLocal, "node-local"},
		{RackLocal, "rack-local"},
		{Remote, "remote"},
		{Level(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.l.String(); got != tt.want {
			t.Errorf("Level(%d).String() = %q, want %q", tt.l, got, tt.want)
		}
	}
}
