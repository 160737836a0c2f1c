package core

import (
	"container/heap"
	"errors"
	"fmt"
)

// Errors returned by the Rep-Factor solver.
var (
	ErrBudgetTooSmall = errors.New("core: replication budget below sum of minimum replication factors")
	ErrBadBudget      = errors.New("core: invalid replication budget")
)

// RepFactorResult carries the outcome of Algorithm 3.
type RepFactorResult struct {
	// Factors maps every block to its computed replication factor k_i.
	Factors map[BlockID]int
	// Objective is ω = max_i P_i / k_i under the computed factors.
	Objective float64
	// Iterations is the number of loop iterations executed.
	Iterations int
	// BudgetUsed is Σ_i k_i.
	BudgetUsed int
}

// ComputeReplicationFactors implements Algorithm 3 of the paper: choose
// per-block replication factors k_i that minimize the maximum per-replica
// popularity ω = max_i P_i/k_i subject to k_i >= MinReplicas(i),
// k_i <= maxPerBlock (the |M| constraint of Rep-Factor) and Σ k_i <=
// budget (β).
//
// Each iteration selects the block with the highest per-replica
// popularity. If budget remains, its factor is incremented; otherwise the
// algorithm looks for a donor block l whose factor can drop by one
// without raising the objective (P_l/(k_l-1) < P_i/k_i) and trades a
// replica from l to i. It terminates when the maximum per-replica
// popularity can no longer be reduced. Theorem 8 shows this solves
// Rep-Factor optimally; we require the donor inequality to be strict so
// that the objective strictly decreases every trade, which also
// guarantees termination (with the paper's non-strict "<=", two blocks of
// equal popularity could trade a replica back and forth forever).
//
// maxIterations > 0 bounds the loop (the K knob of Algorithm 5 /
// Section V); 0 means run to optimality.
func ComputeReplicationFactors(specs []BlockSpec, budget, maxPerBlock, maxIterations int) (RepFactorResult, error) {
	if budget <= 0 {
		return RepFactorResult{}, fmt.Errorf("%w: %d", ErrBadBudget, budget)
	}
	if maxPerBlock <= 0 {
		return RepFactorResult{}, fmt.Errorf("%w: maxPerBlock %d", ErrBadBudget, maxPerBlock)
	}
	factors := make(map[BlockID]int, len(specs))
	pop := make(map[BlockID]float64, len(specs))
	low := make(map[BlockID]int, len(specs))
	used := 0
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return RepFactorResult{}, err
		}
		if _, dup := factors[s.ID]; dup {
			return RepFactorResult{}, fmt.Errorf("%w: block %d", ErrDuplicateBlock, s.ID)
		}
		k := s.MinReplicas
		if k > maxPerBlock {
			return RepFactorResult{}, fmt.Errorf("%w: block %d needs %d replicas, max is %d",
				ErrBadBudget, s.ID, k, maxPerBlock)
		}
		factors[s.ID] = k
		pop[s.ID] = s.Popularity
		low[s.ID] = s.MinReplicas
		used += k
	}
	if used > budget {
		return RepFactorResult{}, fmt.Errorf("%w: need %d, budget %d", ErrBudgetTooSmall, used, budget)
	}

	// Lazy heaps: entries are revalidated against the current factor on
	// pop. inc orders blocks by P/k descending (who most deserves a new
	// replica); dec orders blocks by P/(k-1) ascending (cheapest donor).
	// Pushed in specs order: floatEq is not transitive, so the heap's pop
	// order depends on its push order.
	inc := &repHeap{max: true}
	dec := &repHeap{max: false}
	for _, s := range specs {
		id, k := s.ID, factors[s.ID]
		heap.Push(inc, repEntry{id: id, k: k, key: perReplica(pop[id], k)})
		if k > low[id] {
			heap.Push(dec, repEntry{id: id, k: k, key: perReplica(pop[id], k-1)})
		}
	}

	res := RepFactorResult{}
	for maxIterations == 0 || res.Iterations < maxIterations {
		top, ok := popValid(inc, factors)
		if !ok {
			break
		}
		i := top.id
		topKey := perReplica(pop[i], factors[i])
		if factors[i] >= maxPerBlock {
			// This block cannot take another replica. The objective is
			// now pinned by it, but remaining budget still levels the
			// rest of the distribution (Lemma 7 saturates the budget),
			// which matters for locality: skip it and keep going.
			continue
		}
		if used < budget {
			res.Iterations++
			used++
			factors[i]++
			pushBlock(inc, dec, i, factors[i], pop[i], low[i])
			continue
		}
		donor, ok := findDonor(dec, factors, pop, low, i, topKey)
		if !ok {
			heap.Push(inc, repEntry{id: i, k: factors[i], key: topKey})
			break
		}
		res.Iterations++
		factors[donor]--
		factors[i]++
		pushBlock(inc, dec, donor, factors[donor], pop[donor], low[donor])
		pushBlock(inc, dec, i, factors[i], pop[i], low[i])
	}

	res.Factors = factors
	res.BudgetUsed = used
	for id, k := range factors {
		if v := perReplica(pop[id], k); v > res.Objective {
			res.Objective = v
		}
	}
	return res, nil
}

func perReplica(p float64, k int) float64 {
	if k <= 0 {
		return p
	}
	return p / float64(k)
}

// pushBlock refreshes a block's heap entries after its factor changed.
func pushBlock(inc, dec *repHeap, id BlockID, k int, pop float64, low int) {
	heap.Push(inc, repEntry{id: id, k: k, key: perReplica(pop, k)})
	if k > low {
		heap.Push(dec, repEntry{id: id, k: k, key: perReplica(pop, k-1)})
	}
}

// popValid pops entries until one matches the block's current factor.
func popValid(h *repHeap, factors map[BlockID]int) (repEntry, bool) {
	for h.Len() > 0 {
		e := heap.Pop(h).(repEntry)
		if factors[e.id] == e.k {
			return e, true
		}
	}
	return repEntry{}, false
}

// findDonor pops the cheapest valid donor l != i with k_l > k_low and
// P_l/(k_l-1) strictly below the current objective. Entries popped but
// not used are pushed back.
func findDonor(dec *repHeap, factors map[BlockID]int, pop map[BlockID]float64, low map[BlockID]int, exclude BlockID, objective float64) (BlockID, bool) {
	var skipped []repEntry
	defer func() {
		for _, e := range skipped {
			heap.Push(dec, e)
		}
	}()
	for dec.Len() > 0 {
		e := heap.Pop(dec).(repEntry)
		if factors[e.id] != e.k || factors[e.id] <= low[e.id] {
			continue // stale
		}
		if e.id == exclude {
			skipped = append(skipped, e)
			continue
		}
		if e.key >= objective {
			skipped = append(skipped, e)
			return 0, false // min-heap: no cheaper donor exists
		}
		return e.id, true
	}
	return 0, false
}

// repEntry is a lazily-invalidated heap entry.
type repEntry struct {
	id  BlockID
	k   int     // factor at push time; stale when != current
	key float64 // ordering key at push time
}

// repHeap is a binary heap of repEntry, max- or min-ordered by key with
// deterministic ID tie-breaks.
type repHeap struct {
	entries []repEntry
	max     bool
}

func (h *repHeap) Len() int { return len(h.entries) }

func (h *repHeap) Less(a, b int) bool {
	ea, eb := h.entries[a], h.entries[b]
	if !floatEq(ea.key, eb.key) {
		if h.max {
			return ea.key > eb.key
		}
		return ea.key < eb.key
	}
	return ea.id < eb.id
}

func (h *repHeap) Swap(a, b int) { h.entries[a], h.entries[b] = h.entries[b], h.entries[a] }

func (h *repHeap) Push(x any) { h.entries = append(h.entries, x.(repEntry)) }

func (h *repHeap) Pop() any {
	old := h.entries
	n := len(old)
	e := old[n-1]
	h.entries = old[:n-1]
	return e
}
