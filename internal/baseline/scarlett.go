package baseline

import (
	"fmt"
	"math"
	"sort"

	"aurora/internal/core"
	"aurora/internal/topology"
)

// ScarlettMode selects between the two replication-factor heuristics the
// Scarlett paper proposes. The Aurora paper compares against Priority,
// "which achieves better performance than round robin in experiments".
type ScarlettMode int

// Scarlett's two budget-distribution heuristics.
const (
	// Priority sorts blocks by popularity and gives each block its full
	// desired replica count, hottest first, until the budget runs out.
	Priority ScarlettMode = iota + 1
	// RoundRobin cycles over blocks in popularity order, granting one
	// extra replica per pass, so the budget spreads more evenly.
	RoundRobin
)

// Scarlett reimplements the Scarlett dynamic replication scheme as a
// baseline: popularity-proportional desired replica counts, a storage
// budget distributed by Priority or RoundRobin, and replica placement on
// lightly-loaded machines — but, unlike Aurora, no optimized initial
// placement and no Move/Swap load rebalancing (Section VI: "Scarlett is
// only designed for block replication, and does not consider initial
// block placement and dynamic load balancing").
type Scarlett struct {
	// Mode is the budget-distribution heuristic.
	Mode ScarlettMode
	// Budget is the maximum total replica count Σ k_i (the same β given
	// to Aurora for a fair comparison).
	Budget int
	// MaxPerBlock caps any single block's replica count; zero means the
	// cluster's machine count at Rebalance time.
	MaxPerBlock int
	// TargetLoadPerReplica is Scarlett's per-replica concurrency target:
	// a block with popularity P wants ceil(P / TargetLoadPerReplica)
	// replicas. Zero auto-calibrates so the total desired count roughly
	// matches the budget.
	TargetLoadPerReplica float64
}

// ScarlettResult reports one Scarlett rebalance epoch.
type ScarlettResult struct {
	// Factors are the replica targets chosen for every block.
	Factors map[core.BlockID]int
	// Replications is the number of replicas copied.
	Replications int
}

// Factors computes Scarlett's desired replication factors for the given
// specs without touching a placement.
func (s *Scarlett) Factors(specs []core.BlockSpec, maxPerBlock int) (map[core.BlockID]int, error) {
	if s.Budget <= 0 {
		return nil, fmt.Errorf("baseline: scarlett budget %d must be positive", s.Budget)
	}
	if maxPerBlock <= 0 {
		return nil, fmt.Errorf("baseline: scarlett maxPerBlock %d must be positive", maxPerBlock)
	}
	ordered := make([]core.BlockSpec, len(specs))
	copy(ordered, specs)
	sort.Slice(ordered, func(a, b int) bool {
		if ordered[a].Popularity != ordered[b].Popularity {
			return ordered[a].Popularity > ordered[b].Popularity
		}
		return ordered[a].ID < ordered[b].ID
	})

	factors := make(map[core.BlockID]int, len(ordered))
	used := 0
	for _, sp := range ordered {
		factors[sp.ID] = sp.MinReplicas
		used += sp.MinReplicas
	}
	if used > s.Budget {
		return nil, fmt.Errorf("baseline: %w: need %d, budget %d", core.ErrBudgetTooSmall, used, s.Budget)
	}

	target := s.TargetLoadPerReplica
	if target <= 0 {
		target = s.autoTarget(ordered)
	}
	desired := make(map[core.BlockID]int, len(ordered))
	for _, sp := range ordered {
		d := sp.MinReplicas
		if target > 0 {
			if want := int(math.Ceil(sp.Popularity / target)); want > d {
				d = want
			}
		}
		if d > maxPerBlock {
			d = maxPerBlock
		}
		desired[sp.ID] = d
	}

	switch s.Mode {
	case RoundRobin:
		// One extra replica per block per pass, hottest first.
		progress := true
		for progress && used < s.Budget {
			progress = false
			for _, sp := range ordered {
				if used >= s.Budget {
					break
				}
				if factors[sp.ID] < desired[sp.ID] {
					factors[sp.ID]++
					used++
					progress = true
				}
			}
		}
	default: // Priority
		for _, sp := range ordered {
			want := desired[sp.ID] - factors[sp.ID]
			if want <= 0 {
				continue
			}
			if avail := s.Budget - used; want > avail {
				want = avail
			}
			factors[sp.ID] += want
			used += want
			if used >= s.Budget {
				break
			}
		}
	}
	return factors, nil
}

// autoTarget picks a per-replica load target so that the total desired
// replica count approximately consumes the budget: T = Σ P_i / β.
func (s *Scarlett) autoTarget(specs []core.BlockSpec) float64 {
	var total float64
	for _, sp := range specs {
		total += sp.Popularity
	}
	if total == 0 {
		return 0
	}
	return total / float64(s.Budget)
}

// Rebalance runs one Scarlett replication epoch against the placement:
// compute factors from the blocks' current popularities and copy new
// replicas of under-replicated blocks onto the least-loaded machines.
// Over-replicated blocks are trimmed lazily only when space is needed,
// like Aurora, to keep the storage accounting comparable. No Move/Swap
// rebalancing is performed.
func (s *Scarlett) Rebalance(p *core.Placement) (ScarlettResult, error) {
	maxPerBlock := s.MaxPerBlock
	if maxPerBlock <= 0 {
		maxPerBlock = p.Cluster().NumMachines()
	}
	specs := make([]core.BlockSpec, 0, p.NumBlocks())
	for _, id := range p.Blocks() {
		sp, err := p.Spec(id)
		if err != nil {
			return ScarlettResult{}, err
		}
		specs = append(specs, sp)
	}
	factors, err := s.Factors(specs, maxPerBlock)
	if err != nil {
		return ScarlettResult{}, err
	}
	res := ScarlettResult{Factors: factors}

	type deficit struct {
		id   core.BlockID
		need int
		heat float64
	}
	var deficits []deficit
	for id, target := range factors {
		if cur := p.ReplicaCount(id); cur < target {
			deficits = append(deficits, deficit{id: id, need: target - cur, heat: p.PerReplicaPopularity(id)})
		}
	}
	sort.Slice(deficits, func(a, b int) bool {
		if deficits[a].heat != deficits[b].heat {
			return deficits[a].heat > deficits[b].heat
		}
		return deficits[a].id < deficits[b].id
	})
	// Surplus candidates are collected once, coldest first; replication
	// only raises counts toward targets, so the queue stays valid under
	// lazy re-checks (same optimization as Aurora's optimizer — a full
	// scan per eviction is quadratic at paper scale).
	evictQueue := surplusQueue(p, factors)
	for _, d := range deficits {
		for c := 0; c < d.need; c++ {
			// Enforce the global budget: stale surplus replicas from
			// earlier epochs count against beta and are evicted lazily
			// when their space is needed, exactly as in Aurora, so the
			// two systems compete under the same storage allowance.
			if p.TotalReplicas() >= s.Budget && !evictQueue.evictOne(p) {
				return res, nil
			}
			m := leastLoadedEligible(p, d.id)
			if m == topology.NoMachine {
				break
			}
			if err := p.AddReplica(d.id, m); err != nil {
				break
			}
			res.Replications++
		}
	}
	return res, nil
}

// evictionQueue holds surplus-eviction candidates, coldest first, with
// lazy validity re-checks.
type evictionQueue struct {
	targets map[core.BlockID]int
	order   []core.BlockID
	pos     int
}

// surplusQueue snapshots blocks whose replica count exceeds their
// target, ordered by ascending per-replica popularity (ties by ID).
func surplusQueue(p *core.Placement, targets map[core.BlockID]int) *evictionQueue {
	type cand struct {
		id   core.BlockID
		heat float64
	}
	var cands []cand
	for id, target := range targets {
		if p.ReplicaCount(id) > target {
			cands = append(cands, cand{id: id, heat: p.PerReplicaPopularity(id)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].heat != cands[b].heat {
			return cands[a].heat < cands[b].heat
		}
		return cands[a].id < cands[b].id
	})
	q := &evictionQueue{targets: targets, order: make([]core.BlockID, len(cands))}
	for i, c := range cands {
		q.order[i] = c.id
	}
	return q
}

// evictOne drops the coldest queued surplus replica, never violating
// MinReplicas or MinRacks. Reports whether an eviction happened.
func (q *evictionQueue) evictOne(p *core.Placement) bool {
	for ; q.pos < len(q.order); q.pos++ {
		id := q.order[q.pos]
		cur := p.ReplicaCount(id)
		spec, err := p.Spec(id)
		if err != nil || cur <= q.targets[id] || cur <= spec.MinReplicas {
			continue
		}
		for _, m := range p.Replicas(id) {
			if !p.RemovalKeepsSpread(id, m) {
				continue
			}
			if p.RemoveReplica(id, m) == nil {
				return true // block may still hold surplus: stay on it
			}
		}
	}
	return false
}

// leastLoadedEligible returns the least-loaded machine that can host a
// new replica of block id, or NoMachine.
func leastLoadedEligible(p *core.Placement, id core.BlockID) topology.MachineID {
	best := topology.NoMachine
	bestLoad := 0.0
	for _, m := range p.Cluster().Machines() {
		if p.HasReplica(id, m) || p.FreeCapacity(m) == 0 {
			continue
		}
		if best == topology.NoMachine || p.Load(m) < bestLoad {
			best, bestLoad = m, p.Load(m)
		}
	}
	return best
}
