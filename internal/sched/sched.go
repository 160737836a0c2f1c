// Package sched is the one discrete-event job replay (Replay) and its
// locality-aware map-task placement (Pick), shared by the trace-driven
// simulator (internal/sim, Figs 3-5) and the Fig 6 testbed
// (internal/experiments), which differ only in what a Host supplies.
//
// A map task wants to run where a replica of its input block lives: a
// node-local task reads from the local disk, a rack-local task crosses
// only the top-of-rack switch, and a remote task crosses the core. The
// paper's motivation rests on the observed ~2x slowdown of remote versus
// local tasks, and all its evaluation panels count local versus remote
// tasks, so the scheduler's job here is to pick the best locality level
// available given free slots — the same decision HDFS-colocated
// schedulers (capacity/fair) make.
package sched

// Replays are compared across policies and must be replayable from a
// seed: aurora-lint forbids global randomness and wall-clock reads here.
//
//lint:deterministic

import (
	"errors"

	"aurora/internal/topology"
)

// Level is the data-locality level of a task assignment.
type Level int

// Locality levels, best first.
const (
	NodeLocal Level = iota + 1
	RackLocal
	Remote
)

// String names the level.
func (l Level) String() string {
	switch l {
	case NodeLocal:
		return "node-local"
	case RackLocal:
		return "rack-local"
	case Remote:
		return "remote"
	default:
		return "unknown"
	}
}

// Assignment is a placement decision for one task.
type Assignment struct {
	Machine topology.MachineID
	Level   Level
}

// ErrNoSlots is returned when no machine has a free slot.
var ErrNoSlots = errors.New("sched: no free slots in the cluster")

// Slots tracks free task slots per machine. The zero value is unusable;
// create with NewSlots.
type Slots struct {
	free  []int
	total int // total free slots, to short-circuit full clusters
}

// NewSlots creates the slot tracker from the cluster's per-machine slot
// counts.
func NewSlots(cl *topology.Cluster) *Slots {
	s := &Slots{free: make([]int, cl.NumMachines())}
	for i := range s.free {
		s.free[i] = cl.MustMachine(topology.MachineID(i)).Slots
		s.total += s.free[i]
	}
	return s
}

// Free reports the free slots on machine m.
func (s *Slots) Free(m topology.MachineID) int {
	if int(m) < 0 || int(m) >= len(s.free) {
		return 0
	}
	return s.free[m]
}

// TotalFree reports the total free slots in the cluster.
func (s *Slots) TotalFree() int { return s.total }

// Acquire takes one slot on machine m; it reports whether a slot was
// available.
func (s *Slots) Acquire(m topology.MachineID) bool {
	if s.Free(m) == 0 {
		return false
	}
	s.free[m]--
	s.total--
	return true
}

// Release returns one slot on machine m.
func (s *Slots) Release(m topology.MachineID) {
	if int(m) < 0 || int(m) >= len(s.free) {
		return
	}
	s.free[m]++
	s.total++
}

// Pick chooses the machine of cl for a task reading a block that
// holders store, preferring node-local over rack-local over remote
// placements. Within a level, the machine with the most free slots wins
// (ties to the lowest ID) so load spreads. Pick does not acquire the
// slot; callers Acquire on the returned machine.
func Pick(cl *topology.Cluster, s *Slots, holders []topology.MachineID) (Assignment, error) {
	if s.TotalFree() == 0 {
		return Assignment{}, ErrNoSlots
	}

	// Node-local: a holder with a free slot.
	if m := bestOf(s, holders); m != topology.NoMachine {
		return Assignment{Machine: m, Level: NodeLocal}, nil
	}

	// Rack-local: any machine with a free slot in a rack that holds the
	// block.
	seenRack := make(map[topology.RackID]bool, len(holders))
	best := topology.NoMachine
	for _, h := range holders {
		r, err := cl.RackOf(h)
		if err != nil || seenRack[r] {
			continue
		}
		seenRack[r] = true
		ms, err := cl.MachinesInRack(r)
		if err != nil {
			continue
		}
		if m := bestOf(s, ms); m != topology.NoMachine {
			if best == topology.NoMachine || s.Free(m) > s.Free(best) || (s.Free(m) == s.Free(best) && m < best) {
				best = m
			}
		}
	}
	if best != topology.NoMachine {
		return Assignment{Machine: best, Level: RackLocal}, nil
	}

	// Remote: the machine with the most free slots anywhere.
	for i := range s.free {
		m := topology.MachineID(i)
		if s.Free(m) == 0 {
			continue
		}
		if best == topology.NoMachine || s.Free(m) > s.Free(best) {
			best = m
		}
	}
	if best == topology.NoMachine {
		return Assignment{}, ErrNoSlots
	}
	return Assignment{Machine: best, Level: Remote}, nil
}

// bestOf returns the machine among ms with the most free slots (> 0),
// ties to the lowest ID, or NoMachine.
func bestOf(s *Slots, ms []topology.MachineID) topology.MachineID {
	best := topology.NoMachine
	for _, m := range ms {
		if s.Free(m) == 0 {
			continue
		}
		if best == topology.NoMachine || s.Free(m) > s.Free(best) || (s.Free(m) == s.Free(best) && m < best) {
			best = m
		}
	}
	return best
}
