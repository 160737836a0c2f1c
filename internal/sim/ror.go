package sim

import (
	"fmt"
	"math/rand/v2"

	"aurora/internal/baseline"
	"aurora/internal/core"
	"aurora/internal/topology"
)

// TaskObserver is an optional extension a Policy can implement to react
// to individual task placements — the hook replication-on-read needs:
// DARE (Abad et al., cited as [9]) and the paper's own future-work
// extension replicate a block onto the machine that just read it
// remotely. OnTask returns how many replicas were created as a side
// effect (for movement accounting).
type TaskObserver interface {
	OnTask(p *core.Placement, block core.BlockID, m topology.MachineID, local bool, now int64) int
}

// DAREPolicy reimplements DARE's probabilistic replication-on-read as a
// baseline: random HDFS initial placement, no periodic optimization, and
// on every remote read the reading machine keeps a local copy with
// probability Prob. Excess replicas are evicted least-recently-used
// when the per-policy replica budget is exceeded, matching DARE's LRU
// eviction.
type DAREPolicy struct {
	// Prob is the probability a remote read replicates the block
	// (DARE's p; the paper suggests small values).
	Prob float64
	// Budget caps total replicas (Σ k_i); 0 means unlimited.
	Budget int

	place *baseline.HDFSPolicy
	rng   *rand.Rand
	// lastAccess[m][b] is the last tick block b was used on machine m,
	// driving LRU eviction.
	lastAccess map[topology.MachineID]map[core.BlockID]int64
}

// NewDAREPolicy builds the baseline with a deterministic seed.
func NewDAREPolicy(seed uint64, prob float64, budget int) (*DAREPolicy, error) {
	if prob < 0 || prob > 1 {
		return nil, fmt.Errorf("sim: DARE probability %v outside [0,1]", prob)
	}
	place, err := baseline.NewHDFSPolicy(rand.New(rand.NewPCG(seed, seed^0xda4e)))
	if err != nil {
		return nil, err
	}
	return &DAREPolicy{
		Prob:       prob,
		Budget:     budget,
		place:      place,
		rng:        rand.New(rand.NewPCG(seed^0x9e37, seed)),
		lastAccess: make(map[topology.MachineID]map[core.BlockID]int64),
	}, nil
}

// Name implements Policy.
func (d *DAREPolicy) Name() string { return "dare" }

// PlaceInitial implements Policy: DARE keeps HDFS's random placement.
func (d *DAREPolicy) PlaceInitial(p *core.Placement, id core.BlockID, writer topology.MachineID) error {
	spec, err := p.Spec(id)
	if err != nil {
		return err
	}
	return d.place.Place(p, id, spec.MinReplicas, writer)
}

// Reconfigure implements Policy: DARE has no periodic phase.
func (d *DAREPolicy) Reconfigure(*core.Placement) (Reconfig, error) {
	return Reconfig{}, nil
}

// OnTask implements TaskObserver: remote reads replicate with
// probability Prob; local accesses refresh LRU recency.
func (d *DAREPolicy) OnTask(p *core.Placement, block core.BlockID, m topology.MachineID, local bool, now int64) int {
	if local {
		d.touch(m, block, now)
		return 0
	}
	if d.rng.Float64() >= d.Prob {
		return 0
	}
	if p.HasReplica(block, m) {
		return 0
	}
	// Make room: evict the LRU surplus replica on m if the machine is
	// full, and enforce the global budget the same way.
	if p.FreeCapacity(m) == 0 && !d.evictLRU(p, m, now) {
		return 0
	}
	if d.Budget > 0 && p.TotalReplicas() >= d.Budget {
		if !d.evictLRU(p, m, now) && !d.evictAnywhere(p, now) {
			return 0
		}
	}
	if err := p.AddReplica(block, m); err != nil {
		return 0
	}
	d.touch(m, block, now)
	return 1
}

func (d *DAREPolicy) touch(m topology.MachineID, b core.BlockID, now int64) {
	if d.lastAccess[m] == nil {
		d.lastAccess[m] = make(map[core.BlockID]int64)
	}
	d.lastAccess[m][b] = now
}

// evictLRU removes the least-recently-used surplus replica on machine m.
func (d *DAREPolicy) evictLRU(p *core.Placement, m topology.MachineID, now int64) bool {
	best := core.BlockID(-1)
	bestAge := int64(-1)
	for _, b := range p.BlocksOn(m) {
		spec, err := p.Spec(b)
		if err != nil || p.ReplicaCount(b) <= spec.MinReplicas {
			continue
		}
		if !p.RemovalKeepsSpread(b, m) {
			continue
		}
		age := now - d.lastAccess[m][b] // unknown access time = age `now` (oldest)
		if best == -1 || age > bestAge || (age == bestAge && b < best) {
			best, bestAge = b, age
		}
	}
	if best == -1 {
		return false
	}
	return p.RemoveReplica(best, m) == nil
}

// evictAnywhere drops the globally least-popular surplus replica to make
// budget room.
func (d *DAREPolicy) evictAnywhere(p *core.Placement, now int64) bool {
	for _, b := range p.Blocks() {
		spec, err := p.Spec(b)
		if err != nil || p.ReplicaCount(b) <= spec.MinReplicas {
			continue
		}
		for _, m := range p.Replicas(b) {
			if p.RemovalKeepsSpread(b, m) {
				return p.RemoveReplica(b, m) == nil
			}
		}
	}
	return false
}

// AuroraRoRPolicy is Aurora extended with replication-on-read — the
// future-work combination the paper's conclusion sketches: Algorithm 4/5
// as usual, plus remote reads replicate within the same budget.
type AuroraRoRPolicy struct {
	AuroraPolicy
	// Prob is the replication-on-read probability.
	Prob float64
	rng  *rand.Rand
}

// NewAuroraRoRPolicy wraps an Aurora policy with replication-on-read.
func NewAuroraRoRPolicy(seed uint64, prob float64, opts core.OptimizerOptions) (*AuroraRoRPolicy, error) {
	if prob < 0 || prob > 1 {
		return nil, fmt.Errorf("sim: RoR probability %v outside [0,1]", prob)
	}
	return &AuroraRoRPolicy{
		AuroraPolicy: AuroraPolicy{Opts: opts},
		Prob:         prob,
		rng:          rand.New(rand.NewPCG(seed^0x5017, seed)),
	}, nil
}

// Name implements Policy.
func (a *AuroraRoRPolicy) Name() string { return "aurora+ror" }

// OnTask implements TaskObserver: remote reads replicate within the
// optimizer's budget; surplus trimming is left to the next Algorithm 5
// period (lazy deletion).
func (a *AuroraRoRPolicy) OnTask(p *core.Placement, block core.BlockID, m topology.MachineID, local bool, _ int64) int {
	if local || a.rng.Float64() >= a.Prob {
		return 0
	}
	if p.HasReplica(block, m) || p.FreeCapacity(m) == 0 {
		return 0
	}
	if a.Opts.ReplicationBudget > 0 && p.TotalReplicas() >= a.Opts.ReplicationBudget {
		return 0
	}
	if err := p.AddReplica(block, m); err != nil {
		return 0
	}
	return 1
}

var (
	_ Policy       = (*DAREPolicy)(nil)
	_ TaskObserver = (*DAREPolicy)(nil)
	_ Policy       = (*AuroraRoRPolicy)(nil)
	_ TaskObserver = (*AuroraRoRPolicy)(nil)
)
