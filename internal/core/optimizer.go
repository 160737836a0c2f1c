package core

import (
	"fmt"
	"sort"

	"aurora/internal/topology"
)

// OptimizerOptions configure one run of Algorithm 5 (the periodic
// placement optimizer of Section V).
type OptimizerOptions struct {
	// Epsilon is the admissibility threshold for the local-search phase
	// (Section IV).
	Epsilon float64
	// ReplicationBudget is β: the maximum total number of replicas
	// (Σ k_i) across all blocks. Zero disables dynamic replication
	// (BP-Node/BP-Rack mode: factors stay at their minimums).
	ReplicationBudget int
	// MaxReplicationMoves is K: the bound on both Algorithm 3 iterations
	// and the number of replica copies performed per period. Zero means
	// unbounded.
	MaxReplicationMoves int
	// MaxPerBlock caps k_i; zero defaults to the number of machines.
	MaxPerBlock int
	// RackAware selects Algorithm 2 (true) or Algorithm 1 (false) for
	// the local-search phase.
	RackAware bool
	// MaxSearchIterations bounds the local-search phase; zero means run
	// to quiescence.
	MaxSearchIterations int
	// OnReplicate, if non-nil, observes every replica copy (block,
	// source machine, destination machine). Source is NoMachine when the
	// block had no replicas.
	OnReplicate func(BlockID, topology.MachineID, topology.MachineID)
	// OnEvict, if non-nil, observes every lazy deletion of a surplus
	// replica, made for the budget or for capacity.
	OnEvict func(BlockID, topology.MachineID)
	// OnOp, if non-nil, observes every local-search operation.
	OnOp func(Op)
}

// OptimizeResult summarizes one optimizer period.
type OptimizeResult struct {
	// Targets are the replication factors chosen by Algorithm 3 (nil
	// when dynamic replication is disabled).
	Targets map[BlockID]int
	// RepFactor reports the Algorithm 3 run (zero value when disabled).
	RepFactor RepFactorResult
	// Replications is the number of replica copies performed.
	Replications int
	// Evictions is the number of lazy deletions of surplus replicas.
	Evictions int
	// Search reports the local-search phase.
	Search SearchResult
}

// Optimize runs one period of Algorithm 5 against the placement:
//
//  1. If a replication budget is set, compute target factors with
//     Algorithm 3 and apply them with ReplicateToTargets: replicas of
//     under-replicated blocks are copied (hottest first) onto
//     least-loaded machines, up to K copies, and surplus replicas are
//     evicted only when the budget or a machine's capacity needs them.
//  2. Run the admissible local search (Algorithm 2, or Algorithm 1 when
//     RackAware is false) until no admissible operation remains.
//
// The placement is modified in place.
func Optimize(p *Placement, opts OptimizerOptions) (OptimizeResult, error) {
	var res OptimizeResult
	if opts.ReplicationBudget > 0 {
		if err := replicatePhase(p, &opts, &res); err != nil {
			return res, err
		}
	}
	searchOpts := SearchOptions{
		Epsilon:       opts.Epsilon,
		MaxIterations: opts.MaxSearchIterations,
		OnOp:          opts.OnOp,
	}
	var err error
	if opts.RackAware {
		res.Search, err = BPRackSearch(p, searchOpts)
	} else {
		res.Search, err = BPNodeSearch(p, searchOpts)
	}
	return res, err
}

// replicatePhase runs Algorithm 3 and applies the resulting targets with
// at most K replica copies.
func replicatePhase(p *Placement, opts *OptimizerOptions, res *OptimizeResult) error {
	maxPerBlock := opts.MaxPerBlock
	if maxPerBlock <= 0 {
		maxPerBlock = p.Cluster().NumMachines()
	}
	rf, err := ComputeReplicationFactors(p.Specs(), opts.ReplicationBudget, maxPerBlock, opts.MaxReplicationMoves)
	if err != nil {
		return fmt.Errorf("core: rep-factor phase: %w", err)
	}
	res.Targets = rf.Factors
	res.RepFactor = rf
	res.Replications, res.Evictions = ReplicateToTargets(p, rf.Factors, *opts)
	return nil
}

// ReplicateToTargets is Algorithm 5's replicate step, the one way a
// placement is brought up to a set of replica targets: it copies
// replicas of under-replicated blocks, hottest per-replica popularity
// first, each onto ReplicaDestination's pick, up to
// opts.MaxReplicationMoves (K) copies (zero: unbounded). Deletion is
// lazy (Section V): a replica of a block above its target is evicted,
// coldest block first, only when a copy needs its space — because
// Σk_i has reached opts.ReplicationBudget (β, which must be positive)
// or because no eligible machine has room. OnReplicate and OnEvict
// observe each copy and eviction; the other options are ignored. The
// Aurora optimizer runs it with Algorithm 3's factors, the Scarlett
// baseline with its own. It reports the copies and evictions made.
func ReplicateToTargets(p *Placement, targets map[BlockID]int, opts OptimizerOptions) (replications, evictions int) {
	ids := sortedTargetIDs(targets)
	// Surplus candidates (current count above the target) are collected
	// once, coldest first: replication only raises counts toward
	// targets, so no new surplus appears during the step and the queue
	// stays valid under lazy re-checks.
	eq := &evictQueue{targets: targets, opts: &opts, order: byHeat(p, ids, false, func(id BlockID) bool {
		return p.ReplicaCount(id) > targets[id]
	})}
	// Under-replicated blocks, hottest per-replica popularity first, so
	// the bounded copy budget goes where it matters most. A block's count
	// moves only by its own copies: evictions take surplus blocks only.
	for _, id := range byHeat(p, ids, true, func(id BlockID) bool { return p.ReplicaCount(id) < targets[id] }) {
		for p.ReplicaCount(id) < targets[id] {
			if opts.MaxReplicationMoves > 0 && replications >= opts.MaxReplicationMoves {
				return replications, eq.evictions
			}
			if !replicateOnce(p, id, eq) {
				break // no host available even after eviction attempts
			}
			replications++
		}
	}
	return replications, eq.evictions
}

// byHeat returns the blocks among ids that keep admits, ordered by
// per-replica popularity — hottest first if hottest, else coldest
// first — with ties by ID. ids must be ascending: floatEq is not
// transitive, so the sort's result depends on its input order.
func byHeat(p *Placement, ids []BlockID, hottest bool, keep func(BlockID) bool) []BlockID {
	type cand struct {
		id   BlockID
		heat float64
	}
	var cands []cand
	for _, id := range ids {
		if keep(id) {
			cands = append(cands, cand{id: id, heat: p.PerReplicaPopularity(id)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if !floatEq(cands[a].heat, cands[b].heat) {
			return (cands[a].heat > cands[b].heat) == hottest
		}
		return cands[a].id < cands[b].id
	})
	order := make([]BlockID, len(cands))
	for i, c := range cands {
		order[i] = c.id
	}
	return order
}

// evictQueue holds lazy surplus-eviction candidates, coldest first, and
// counts the evictions taken from it.
type evictQueue struct {
	targets   map[BlockID]int
	order     []BlockID
	pos       int
	opts      *OptimizerOptions
	evictions int
}

// replicateOnce adds one replica of block id on the best destination,
// evicting surplus replicas if either the global replication budget or
// the cluster's capacity is exhausted (Section V's lazy deletion: stale
// replicas are reclaimed only when their space is needed). It reports
// whether a replica was added.
func replicateOnce(p *Placement, id BlockID, eq *evictQueue) bool {
	if p.TotalReplicas() >= eq.opts.ReplicationBudget {
		if !eq.evictSurplus(p, id) {
			return false
		}
	}
	dest := p.ReplicaDestination(id, nil)
	if dest == topology.NoMachine {
		// Lazy deletion (Section V): reclaim space by dropping the
		// coldest surplus replica from a machine that could actually
		// host this block, then retry once.
		if !eq.evictSurplus(p, id) {
			return false
		}
		dest = p.ReplicaDestination(id, nil)
		if dest == topology.NoMachine {
			return false
		}
	}
	src := replicaSource(p, id)
	if err := p.AddReplica(id, dest); err != nil {
		return false
	}
	if eq.opts.OnReplicate != nil {
		eq.opts.OnReplicate(id, src, dest)
	}
	return true
}

// ReplicaDestination picks where a new replica of block id should go
// among the machines eligible admits (nil admits every machine with
// room): the least-loaded machine in the least-loaded rack, preferring
// racks that widen the block's spread while it is below MinRacks. It is
// the one destination scan the replicate step (so the optimizer and the
// Scarlett baseline) and the namenode's repair share; callers that know
// more than the topology (liveness, draining) say so through eligible.
func (p *Placement) ReplicaDestination(id BlockID, eligible func(topology.MachineID) bool) topology.MachineID {
	b, ok := p.block(id)
	if !ok {
		return topology.NoMachine
	}
	racks := racksByLoad(p)
	if b.spread < b.spec.MinRacks {
		if m := leastLoadedHost(p, id, racks, eligible, func(r topology.RackID) bool {
			return p.InRack(id, r)
		}); m != topology.NoMachine {
			return m
		}
	}
	return leastLoadedHost(p, id, racks, eligible, nil)
}

// SurplusVictim picks which replica of block id to drop when the block
// holds more than it should, among the holders eligible admits (nil
// admits every holder): the most-loaded holder whose removal keeps the
// block's rack spread (RemovalKeepsSpread), ties to the lowest machine
// ID. It is the one victim rule the replicate step's lazy eviction and
// the namenode's heal share; keeping MinReplicas is the caller's part.
// Returns NoMachine when no holder qualifies.
func (p *Placement) SurplusVictim(id BlockID, eligible func(topology.MachineID) bool) topology.MachineID {
	b, ok := p.block(id)
	if !ok {
		return topology.NoMachine
	}
	best := topology.NoMachine
	bestLoad := 0.0
	for _, m := range b.replicas {
		if (eligible != nil && !eligible(m)) || !p.RemovalKeepsSpread(id, m) {
			continue
		}
		// Holders are in ascending ID order, so only a clearly higher
		// load displaces the incumbent.
		if l := p.machines[m].load; best == topology.NoMachine || (l > bestLoad && !floatEq(l, bestLoad)) {
			best, bestLoad = m, l
		}
	}
	return best
}

// replicaSource picks which existing holder a copy would stream from:
// the least-loaded holder, to disturb hotspots least. Returns NoMachine
// for an unplaced block.
func replicaSource(p *Placement, id BlockID) topology.MachineID {
	best := topology.NoMachine
	bestLoad := 0.0
	for _, m := range p.Replicas(id) {
		if best == topology.NoMachine || p.Load(m) < bestLoad {
			best, bestLoad = m, p.Load(m)
		}
	}
	return best
}

// evictSurplus removes one replica of a block whose current count
// exceeds its target, taking the coldest queued candidate that has a
// SurplusVictim off forBlock's holders — so the freed slot is one
// forBlock can use — never violating MinReplicas. Reports whether an
// eviction happened.
func (eq *evictQueue) evictSurplus(p *Placement, forBlock BlockID) bool {
	for ; eq.pos < len(eq.order); eq.pos++ {
		id := eq.order[eq.pos]
		cur := p.ReplicaCount(id)
		spec, err := p.Spec(id)
		if err != nil {
			continue
		}
		if cur <= eq.targets[id] || cur <= spec.MinReplicas {
			continue
		}
		m := p.SurplusVictim(id, func(m topology.MachineID) bool { return !p.HasReplica(forBlock, m) })
		if m == topology.NoMachine || p.RemoveReplica(id, m) != nil {
			continue
		}
		// Block may still hold more surplus: do not advance past it.
		eq.evictions++
		if eq.opts.OnEvict != nil {
			eq.opts.OnEvict(id, m)
		}
		return true
	}
	return false
}

// sortedTargetIDs returns the target map's keys in ascending order so
// eviction scans are deterministic.
func sortedTargetIDs(targets map[BlockID]int) []BlockID {
	ids := make([]BlockID, 0, len(targets))
	for id := range targets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}
