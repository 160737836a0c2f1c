package core

import (
	"fmt"

	"aurora/internal/topology"
)

// OpKind enumerates the local-search operations from Sections III.A and
// III.B of the paper.
type OpKind int

// The four local-search operations.
const (
	OpMove     OpKind = iota + 1 // Move(m, i, n): move block i from m to n (same rack)
	OpSwap                       // Swap(m, i, n, j): exchange i on m with j on n (same rack)
	OpRackMove                   // RackMove(r, m, i, t, n): move i across racks
	OpRackSwap                   // RackSwap(r, m, i, t, n, j): swap across racks
)

// String names the operation kind.
func (k OpKind) String() string {
	switch k {
	case OpMove:
		return "Move"
	case OpSwap:
		return "Swap"
	case OpRackMove:
		return "RackMove"
	case OpRackSwap:
		return "RackSwap"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op describes one executed local-search operation, for accounting:
// reconfiguration cost in the paper is measured in block movements, and
// each Move/RackMove is one movement while each Swap/RackSwap is two.
type Op struct {
	Kind       OpKind
	Block      BlockID
	From, To   topology.MachineID
	OtherBlock BlockID // the j block for swaps; 0 otherwise
}

// BlockMovements returns the number of physical block transfers the
// operation causes.
func (o Op) BlockMovements() int {
	switch o.Kind {
	case OpSwap, OpRackSwap:
		return 2
	default:
		return 1
	}
}

// SearchOptions tune the local search.
type SearchOptions struct {
	// Epsilon in [0, 1) is the admissibility threshold from Section IV:
	// only operations that substantially reduce cost are performed, so
	// larger values trade balance quality for fewer block movements
	// (Theorem 9); the paper sweeps Epsilon in {0.1 .. 0.9}.
	//
	// Concretely, operations on a machine pair (m, n) — m the loaded
	// machine — are admissible only while the pair is imbalanced by more
	// than an Epsilon fraction: L_m - L_n > Epsilon*L_m. Once a pair is
	// within Epsilon of balanced it is left alone, so the search
	// terminates with the extreme pair satisfying
	// L_m <= (L_n + p_i)/(1-Epsilon), giving SOL <= (OPT+p_max)/(1-eps)
	// — the (2+O(eps))/(4+O(eps)) guarantees of Theorem 9. Epsilon = 0
	// recovers the plain Algorithm 1/2 bounds. (The paper's literal
	// definition, "reduces solution cost by at least eps*SOL", performs
	// no operations at all on realistic instances — no single block move
	// cuts the global maximum load by 10% — so this relative-imbalance
	// reading is used; it reproduces the monotone moves-versus-balance
	// tradeoff of Figures 3-5.)
	Epsilon float64
	// MaxIterations bounds the number of operations performed; 0 means
	// unbounded (the strict-improvement requirement still guarantees
	// termination).
	MaxIterations int
	// DisableSwap restricts the search to Move operations only — an
	// ablation knob: without Swap, Theorem 2's capacity argument fails
	// and full machines block rebalancing.
	DisableSwap bool
	// OnOp, if non-nil, observes every executed operation.
	OnOp func(Op)
}

// SearchResult summarizes one local-search run.
type SearchResult struct {
	Iterations  int     // operations performed
	Movements   int     // physical block movements (swaps count twice)
	InitialCost float64 // λ before the search
	FinalCost   float64 // λ after the search
	// Per-kind operation counts; they sum to Iterations. The telemetry
	// layer exports them so a live run shows which of the paper's four
	// operations the search is spending its movement budget on.
	Moves     int
	Swaps     int
	RackMoves int
	RackSwaps int
}

// minImprovement is the relative floor below which a float "improvement"
// is considered noise; it prevents non-termination from rounding drift
// when Epsilon = 0.
const minImprovement = 1e-9

// pairAdmissible reports whether the pair (high, low) is imbalanced
// enough that operations on it are admissible at all. See
// SearchOptions.Epsilon.
func pairAdmissible(high, low, epsilon float64) bool {
	return high-low > epsilon*high
}

// improves reports whether reducing the pair cost from `high` to
// `newPairCost` is a strict improvement above float noise.
func improves(high, newPairCost float64) bool {
	return high-newPairCost > minImprovement*(1+high)
}

// candidate is an evaluated, feasible, admissible operation together with
// the pair cost it would leave behind.
type candidate struct {
	op          Op
	newPairCost float64
}

// bestPairOpSwap evaluates Move and, when allowSwap is set, Swap
// operations from machine m (loaded) to machine n (unloaded) and returns
// the admissible candidate with the lowest resulting pair cost, or
// ok=false when none exists.
//
// Following the proof of Theorem 2, blocks held by both machines are
// skipped (a machine stores at most one replica of a block, and moving a
// shared block would change its replication factor); the scan considers
// blocks on m in descending per-replica popularity.
//
// It allocates nothing: both machines' candidate blocks come from the
// popularity-sorted lists Placement maintains incrementally, so there is
// no per-probe rebuild or sort. The visit order matches the reference
// scan (per-replica popularity descending, ties by ascending block ID):
// the stored lists are ascending by (popularity, ID), so equal-popularity
// runs are located from the top of the list and each run is walked
// forward.
//
//lint:hotpath
func bestPairOpSwap(p *Placement, m, n topology.MachineID, epsilon float64, allowSwap bool) (candidate, bool) {
	lm, ln := p.Load(m), p.Load(n)
	if lm <= ln {
		return candidate{}, false
	}
	// Pairs within epsilon of balanced are left alone (Section IV), and
	// this check doubles as a cheap prefilter when callers probe many
	// pairs.
	if !pairAdmissible(lm, ln, epsilon) {
		return candidate{}, false
	}
	// Per-pair facts hoisted out of the scan: rack IDs for the spread
	// checks and whether n has room for a move (swaps need no room — one
	// replica leaves as one arrives). The scan mutates nothing, so these
	// stay valid throughout.
	mRack := p.cluster.MustMachine(m).Rack
	nMach := p.cluster.MustMachine(n)
	nRack := nMach.Rack
	nHasRoom := len(p.machines[n].sorted) < nMach.Capacity
	mine := p.machines[m].sorted
	best := candidate{newPairCost: lm}
	found := false
	for hi := len(mine); hi > 0; {
		runPop := mine[hi-1].pop
		// Any operation that relocates a block improves the pair cost by
		// at most its popularity, and runs are visited in descending
		// popularity, so once it falls below the noise floor nothing
		// further can qualify.
		if runPop <= minImprovement*(1+lm) {
			break
		}
		lo := hi
		for lo > 0 && !(mine[lo-1].pop < runPop) {
			lo--
		}
		for k := lo; k < hi; k++ {
			i, pi := mine[k].id, mine[k].pop
			b := &p.states[p.blocks[i]]
			// Blocks held by both machines are skipped (Theorem 2): a
			// machine stores at most one replica, and relocating a shared
			// block would change its replication factor.
			if b.hasHolder(n) {
				continue
			}
			// Try the move first: it is one block transfer instead of two.
			// Feasibility is CanMove minus the checks the scan already
			// guarantees (block exists, held on m, absent from n).
			if nHasRoom && p.moveKeepsSpread(b, mRack, nRack) {
				cost := pairCost(lm-pi, ln+pi)
				if improves(lm, cost) && cost < best.newPairCost {
					best = candidate{
						op:          Op{Kind: moveKind(p, m, n), Block: i, From: m, To: n},
						newPairCost: cost,
					}
					found = true
				}
			}
			// Try swapping i against the best counterpart on n.
			if !allowSwap {
				continue
			}
			if j, cost, ok := bestSwapCounterpart(p, i, b, pi, m, n, mRack, nRack, lm, ln); ok {
				if improves(lm, cost) && cost < best.newPairCost {
					best = candidate{
						op:          Op{Kind: swapKind(p, m, n), Block: i, From: m, To: n, OtherBlock: j},
						newPairCost: cost,
					}
					found = true
				}
			}
		}
		hi = lo
	}
	return best, found
}

// popLowerBound returns the first index in s whose popularity is >= pop,
// ignoring IDs. Hand-rolled to keep the hot path closure-free.
func popLowerBound(s []blockRef, pop float64) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].pop < pop {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// moveKeepsSpread reports whether relocating one replica of b from
// fromRack to toRack keeps its rack-spread constraint satisfiable: the
// spread after the move meets MinRacks, or it was already below (the
// search never repairs spread, only refuses to worsen a satisfied
// constraint). This is the rack leg of CanMove/CanSwap with the machine
// lookups hoisted to the caller. A spread other than exactly MinRacks
// answers without looking at the holders: above it, one move loses at
// most one rack.
func (p *Placement) moveKeepsSpread(b *blockState, fromRack, toRack topology.RackID) bool {
	return b.spread != b.spec.MinRacks ||
		p.rackSpreadAfterMoveRacks(b, fromRack, toRack) >= b.spec.MinRacks
}

// bestSwapCounterpart finds the block j on n (not on m) that minimizes
// the post-swap pair cost max(L_m - p_i + p_j, L_n + p_i - p_j). As a
// function of p_j that cost is V-shaped with minimum at
// p_j* = p_i - (L_m - L_n)/2, so the search starts at the candidate
// nearest p_j* and expands outward, stopping a direction as soon as its
// cost can no longer beat the best found.
//
// It searches n's incrementally sorted block list directly instead of a
// prefiltered copy; blocks shared with m are skipped in place. Stopping
// at a shared block whose cost can no longer win is sound because the
// cost is monotone non-decreasing along each walk direction: every later
// candidate, shared or not, is at least as bad.
//
// bi is i's block state and mRack/nRack the pair's racks, hoisted by the
// caller. The callers' scan invariants (i held on m and not on n, j held
// on n, i != j, m != n) replace the corresponding CanSwap lookups.
//
//lint:hotpath
func bestSwapCounterpart(p *Placement, i BlockID, bi *blockState, pi float64, m, n topology.MachineID, mRack, nRack topology.RackID, lm, ln float64) (BlockID, float64, bool) {
	// If sending i to n's rack would break i's spread, no counterpart is
	// feasible at all.
	if !p.moveKeepsSpread(bi, mRack, nRack) {
		return 0, 0, false
	}
	cands := p.machines[n].sorted
	// Only counterparts with p_j < p_i strictly lower m's load.
	hi := popLowerBound(cands, pi)
	if hi == 0 {
		return 0, 0, false
	}
	target := pi - (lm-ln)/2
	start := popLowerBound(cands[:hi], target)

	bestJ := BlockID(-1)
	bestCost := lm
	found := false
	consider := func(k int) bool {
		c := cands[k]
		cost := pairCost(lm-pi+c.pop, ln+pi-c.pop)
		if cost >= bestCost {
			return false // V-shape: farther candidates on this side are worse
		}
		bj := &p.states[p.blocks[c.id]]
		if !bj.hasHolder(m) && p.moveKeepsSpread(bj, nRack, mRack) {
			bestJ, bestCost, found = c.id, cost, true
		}
		return true
	}
	for k := start; k < hi; k++ { // rightward from the valley
		if !consider(k) {
			break
		}
	}
	for k := start - 1; k >= 0; k-- { // leftward from the valley
		if !consider(k) {
			break
		}
	}
	return bestJ, bestCost, found
}

func pairCost(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func moveKind(p *Placement, m, n topology.MachineID) OpKind {
	if p.Cluster().SameRack(m, n) {
		return OpMove
	}
	return OpRackMove
}

func swapKind(p *Placement, m, n topology.MachineID) OpKind {
	if p.Cluster().SameRack(m, n) {
		return OpSwap
	}
	return OpRackSwap
}

// apply executes a chosen candidate and notifies the observer.
func applyCandidate(p *Placement, c candidate, opts *SearchOptions, res *SearchResult) error {
	var err error
	switch c.op.Kind {
	case OpMove, OpRackMove:
		err = p.MoveReplica(c.op.Block, c.op.From, c.op.To)
	case OpSwap, OpRackSwap:
		err = p.SwapReplicas(c.op.Block, c.op.From, c.op.OtherBlock, c.op.To)
	default:
		err = fmt.Errorf("core: unknown op kind %v", c.op.Kind)
	}
	if err != nil {
		return fmt.Errorf("core: applying %v: %w", c.op.Kind, err)
	}
	res.Iterations++
	res.Movements += c.op.BlockMovements()
	switch c.op.Kind {
	case OpMove:
		res.Moves++
	case OpSwap:
		res.Swaps++
	case OpRackMove:
		res.RackMoves++
	case OpRackSwap:
		res.RackSwaps++
	}
	if opts.OnOp != nil {
		opts.OnOp(c.op)
	}
	return nil
}
