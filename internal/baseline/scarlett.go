package baseline

import (
	"fmt"
	"math"
	"sort"

	"aurora/internal/core"
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
// baseline: popularity-proportional desired replica counts with a
// storage budget distributed by Priority or RoundRobin, brought about by
// the same replicate step Aurora runs (core.ReplicateToTargets) — but,
// unlike Aurora, no optimized initial placement and no Move/Swap load
// rebalancing (Section VI: "Scarlett is only designed for block
// replication, and does not consider initial block placement and
// dynamic load balancing").
type Scarlett struct {
	// Mode is the budget-distribution heuristic.
	Mode ScarlettMode
	// Budget is the maximum total replica count Σ k_i (the same β given
	// to Aurora for a fair comparison).
	Budget int
}

// ScarlettResult reports one Scarlett rebalance epoch.
type ScarlettResult struct {
	// Factors are the replica targets chosen for every block.
	Factors map[core.BlockID]int
	// Replications is the number of replicas copied.
	Replications int
	// Evictions is the number of surplus replicas dropped to make room.
	Evictions int
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

	target := s.autoTarget(ordered)
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

// autoTarget is Scarlett's per-replica load target: a block with
// popularity P wants ceil(P / T) replicas, and T = Σ P_i / β makes the
// total desired count roughly consume the budget.
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
// compute factors from the blocks' current popularities (at most one
// replica per machine) and bring the placement up to them with
// core.ReplicateToTargets under the budget and no bound on copies.
// Surplus replicas are deleted lazily, when the budget or a machine's
// capacity needs their space, exactly as in Aurora. No Move/Swap
// rebalancing is performed.
func (s *Scarlett) Rebalance(p *core.Placement) (ScarlettResult, error) {
	factors, err := s.Factors(p.Specs(), p.Cluster().NumMachines())
	if err != nil {
		return ScarlettResult{}, err
	}
	res := ScarlettResult{Factors: factors}
	res.Replications, res.Evictions = core.ReplicateToTargets(p, factors, core.OptimizerOptions{ReplicationBudget: s.Budget})
	return res, nil
}
