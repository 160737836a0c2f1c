// Package loadindex maintains ordered indexes over per-machine loads so
// the local search can find extreme machines in O(log M) instead of the
// O(M) scans the seed implementation paid on every iteration (see
// DESIGN.md "Hot-path data structures").
//
// The index is a set of flat segment trees keyed by machine ID:
//
//   - a global argmax tree and a global argmin tree over all machines;
//   - one argmax and one argmin tree per rack, over that rack's members;
//   - a "masked" argmax overlay whose leaves are pinned to -Inf while a
//     machine is masked, implementing the search's stuck-set exclusion
//     without rescanning.
//
// Every tree breaks ties toward the leftmost leaf, i.e. the lowest
// machine ID — exactly the tie-break of the linear scans it replaces
// (a scan with a strict `>`/`<` comparison keeps the first extreme it
// sees). That equivalence is what lets the indexed search reproduce the
// reference search operation-for-operation; it is asserted by the
// equivalence property test in internal/core.
//
// The index is deterministic by construction (no randomized balancing, no
// iteration over maps) and is not safe for concurrent mutation; the
// owning Placement serializes access.
//
//lint:deterministic
package loadindex

import (
	"fmt"
	"math"
)

// tree is a flat segment tree computing an argmax or argmin over its
// leaves. Leaves beyond n are padded with the identity element (-Inf for
// max, +Inf for min) and argument -1. Internal node i has children 2i
// and 2i+1; node 1 is the root.
type tree struct {
	base  int // number of leaves (power of two)
	isMax bool
	val   []float64
	arg   []int32 // machine ID at the extreme of each subtree; -1 for padding
}

// pow2 returns the smallest power of two >= n (n >= 1).
func pow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newTree builds a tree over vals, where leaf i carries argument ids[i].
func newTree(vals []float64, ids []int32, isMax bool) tree {
	base := pow2(len(vals))
	t := tree{
		base:  base,
		isMax: isMax,
		val:   make([]float64, 2*base),
		arg:   make([]int32, 2*base),
	}
	pad := math.Inf(1)
	if isMax {
		pad = math.Inf(-1)
	}
	for i := 0; i < base; i++ {
		if i < len(vals) {
			t.val[base+i] = vals[i]
			t.arg[base+i] = ids[i]
		} else {
			t.val[base+i] = pad
			t.arg[base+i] = -1
		}
	}
	for i := base - 1; i >= 1; i-- {
		t.pull(i)
	}
	return t
}

// pull recomputes internal node i from its children. The left child wins
// ties, so the extreme reported at the root is always the leftmost —
// lowest machine ID — among equals.
func (t *tree) pull(i int) {
	l, r := 2*i, 2*i+1
	take := r
	if t.isMax {
		if !(t.val[r] > t.val[l]) {
			take = l
		}
	} else {
		if !(t.val[r] < t.val[l]) {
			take = l
		}
	}
	t.val[i] = t.val[take]
	t.arg[i] = t.arg[take]
}

// update sets leaf pos to v and repairs the path to the root, stopping
// at the first node whose recomputation leaves it unchanged: ancestors
// read only their children's (val, arg) pairs, so they cannot change
// either. Bit comparison keeps the cutoff exact (a spurious continue on
// 0 vs -0 is merely slower, never wrong).
func (t *tree) update(pos int, v float64) {
	i := t.base + pos
	if math.Float64bits(t.val[i]) == math.Float64bits(v) {
		return
	}
	t.val[i] = v
	for i >>= 1; i >= 1; i >>= 1 {
		oldV, oldA := t.val[i], t.arg[i]
		t.pull(i)
		if math.Float64bits(t.val[i]) == math.Float64bits(oldV) && t.arg[i] == oldA {
			return
		}
	}
}

// top returns the extreme argument and value over all leaves.
func (t *tree) top() (int32, float64) { return t.arg[1], t.val[1] }

// Index is the full set of load trees for one placement. Machines are
// dense IDs in [0, M); racks are dense IDs in [0, R).
type Index struct {
	loads   []float64
	rackOf  []int32 // machine -> rack
	rackPos []int32 // machine -> position within its rack's trees
	masked  []bool
	// maskedList records machines that were masked since the last
	// ClearMasks, possibly with stale (since-unmasked) entries; ClearMasks
	// walks it instead of all machines.
	maskedList []int
	gmax, gmin tree
	umax       tree // argmax over unmasked machines only
	rmax, rmin []tree
}

// New builds an index over the given initial loads. rackOf maps each
// machine to its rack; numRacks is the number of racks. Every rack must
// have at least one machine (guaranteed by topology.Builder).
func New(loads []float64, rackOf []int, numRacks int) *Index {
	n := len(loads)
	idx := &Index{
		loads:   make([]float64, n),
		rackOf:  make([]int32, n),
		rackPos: make([]int32, n),
		masked:  make([]bool, n),
		rmax:    make([]tree, numRacks),
		rmin:    make([]tree, numRacks),
	}
	copy(idx.loads, loads)
	ids := make([]int32, n)
	for i := 0; i < n; i++ {
		ids[i] = int32(i)
		idx.rackOf[i] = int32(rackOf[i])
	}
	idx.gmax = newTree(idx.loads, ids, true)
	idx.gmin = newTree(idx.loads, ids, false)
	idx.umax = newTree(idx.loads, ids, true)
	// Rack member lists in ascending machine ID, so per-rack trees break
	// ties toward the lowest ID too.
	memberVals := make([][]float64, numRacks)
	memberIDs := make([][]int32, numRacks)
	for i := 0; i < n; i++ {
		r := rackOf[i]
		idx.rackPos[i] = int32(len(memberIDs[r]))
		memberVals[r] = append(memberVals[r], idx.loads[i])
		memberIDs[r] = append(memberIDs[r], int32(i))
	}
	for r := 0; r < numRacks; r++ {
		idx.rmax[r] = newTree(memberVals[r], memberIDs[r], true)
		idx.rmin[r] = newTree(memberVals[r], memberIDs[r], false)
	}
	return idx
}

// Update records machine m's new load in every tree. A masked machine's
// leaf in the unmasked-max overlay stays pinned at -Inf.
//
//lint:hotpath
func (idx *Index) Update(m int, load float64) {
	idx.loads[m] = load
	idx.gmax.update(m, load)
	idx.gmin.update(m, load)
	if !idx.masked[m] {
		idx.umax.update(m, load)
	}
	r := idx.rackOf[m]
	pos := int(idx.rackPos[m])
	idx.rmax[r].update(pos, load)
	idx.rmin[r].update(pos, load)
}

// Load returns the load currently recorded for machine m.
//
//lint:hotpath
func (idx *Index) Load(m int) float64 { return idx.loads[m] }

// Max returns the machine with the highest load (lowest ID on ties).
//
//lint:hotpath
func (idx *Index) Max() int {
	arg, _ := idx.gmax.top()
	return int(arg)
}

// Min returns the machine with the lowest load (lowest ID on ties).
//
//lint:hotpath
func (idx *Index) Min() int {
	arg, _ := idx.gmin.top()
	return int(arg)
}

// MaxInRack returns the highest-loaded machine within rack r.
//
//lint:hotpath
func (idx *Index) MaxInRack(r int) int {
	arg, _ := idx.rmax[r].top()
	return int(arg)
}

// MinInRack returns the lowest-loaded machine within rack r.
//
//lint:hotpath
func (idx *Index) MinInRack(r int) int {
	arg, _ := idx.rmin[r].top()
	return int(arg)
}

// Mask excludes machine m from MaxUnmasked until Unmask or ClearMasks.
func (idx *Index) Mask(m int) {
	if idx.masked[m] {
		return
	}
	idx.masked[m] = true
	idx.maskedList = append(idx.maskedList, m)
	idx.umax.update(m, math.Inf(-1))
}

// Unmask restores machine m into MaxUnmasked. Unmasking an unmasked
// machine is a no-op.
func (idx *Index) Unmask(m int) {
	if !idx.masked[m] {
		return
	}
	idx.masked[m] = false
	idx.umax.update(m, idx.loads[m])
}

// ClearMasks unmasks every masked machine.
func (idx *Index) ClearMasks() {
	for _, m := range idx.maskedList {
		if idx.masked[m] {
			idx.masked[m] = false
			idx.umax.update(m, idx.loads[m])
		}
	}
	idx.maskedList = idx.maskedList[:0]
}

// MaxUnmasked returns the highest-loaded unmasked machine whose load
// strictly exceeds minLoad (lowest ID on ties), or ok=false when none
// exists — the indexed form of the search's maxLoadedExcluding scan.
//
//lint:hotpath
func (idx *Index) MaxUnmasked(minLoad float64) (int, bool) {
	arg, val := idx.umax.top()
	if arg < 0 || !(val > minLoad) {
		return 0, false
	}
	return int(arg), true
}

// Clone deep-copies the index, including mask state. The machine-to-rack
// maps never change after New, so the copy shares them.
func (idx *Index) Clone() *Index {
	c := &Index{
		loads:   append([]float64(nil), idx.loads...),
		rackOf:  idx.rackOf,
		rackPos: idx.rackPos,
		masked:  append([]bool(nil), idx.masked...),
		rmax:    make([]tree, len(idx.rmax)),
		rmin:    make([]tree, len(idx.rmin)),
	}
	if len(idx.maskedList) > 0 {
		c.maskedList = append([]int(nil), idx.maskedList...)
	}
	// Every tree's nodes come from one slab per element type.
	nodes := len(idx.gmax.val) + len(idx.gmin.val) + len(idx.umax.val)
	for r := range idx.rmax {
		nodes += len(idx.rmax[r].val) + len(idx.rmin[r].val)
	}
	s := &treeSlab{val: make([]float64, nodes), arg: make([]int32, nodes)}
	c.gmax = s.clone(&idx.gmax)
	c.gmin = s.clone(&idx.gmin)
	c.umax = s.clone(&idx.umax)
	for r := range idx.rmax {
		c.rmax[r] = s.clone(&idx.rmax[r])
		c.rmin[r] = s.clone(&idx.rmin[r])
	}
	return c
}

// treeSlab hands out the node arrays of cloned trees from two shared
// slabs. A tree never grows, so carved arrays cannot overlap.
type treeSlab struct {
	val []float64
	arg []int32
}

// clone copies t into the next len(t.val) nodes of the slab.
func (s *treeSlab) clone(t *tree) tree {
	n := len(t.val)
	c := tree{base: t.base, isMax: t.isMax, val: s.val[:n:n], arg: s.arg[:n:n]}
	copy(c.val, t.val)
	copy(c.arg, t.arg)
	s.val, s.arg = s.val[n:], s.arg[n:]
	return c
}

// Validate checks the index against an externally supplied load vector:
// stored loads must be bit-identical to loads, every internal tree node
// must equal the recomputation from its children, and masked machines
// must be pinned to -Inf in the unmasked-max overlay. It is O(M) and
// intended for Placement.Validate and tests.
func (idx *Index) Validate(loads []float64) error {
	if len(loads) != len(idx.loads) {
		return fmt.Errorf("loadindex: %d machines indexed, caller has %d", len(idx.loads), len(loads))
	}
	for m, want := range loads {
		if math.Float64bits(idx.loads[m]) != math.Float64bits(want) {
			return fmt.Errorf("loadindex: machine %d stores load %v, caller has %v", m, idx.loads[m], want)
		}
	}
	check := func(name string, t *tree, leaf func(pos int) (float64, int32)) error {
		for pos := 0; pos < t.base; pos++ {
			wantV, wantA := leaf(pos)
			i := t.base + pos
			if math.Float64bits(t.val[i]) != math.Float64bits(wantV) || t.arg[i] != wantA {
				return fmt.Errorf("loadindex: %s leaf %d is (%v, %d), want (%v, %d)",
					name, pos, t.val[i], t.arg[i], wantV, wantA)
			}
		}
		for i := t.base - 1; i >= 1; i-- {
			v, a := t.val[i], t.arg[i]
			t.pull(i)
			if math.Float64bits(t.val[i]) != math.Float64bits(v) || t.arg[i] != a {
				return fmt.Errorf("loadindex: %s node %d was (%v, %d), recomputed (%v, %d)",
					name, i, v, a, t.val[i], t.arg[i])
			}
		}
		return nil
	}
	maxPad, minPad := math.Inf(-1), math.Inf(1)
	global := func(pad float64) func(pos int) (float64, int32) {
		return func(pos int) (float64, int32) {
			if pos >= len(idx.loads) {
				return pad, -1
			}
			return idx.loads[pos], int32(pos)
		}
	}
	if err := check("gmax", &idx.gmax, global(maxPad)); err != nil {
		return err
	}
	if err := check("gmin", &idx.gmin, global(minPad)); err != nil {
		return err
	}
	if err := check("umax", &idx.umax, func(pos int) (float64, int32) {
		if pos >= len(idx.loads) {
			return maxPad, -1
		}
		if idx.masked[pos] {
			return maxPad, int32(pos)
		}
		return idx.loads[pos], int32(pos)
	}); err != nil {
		return err
	}
	// Per-rack trees: rebuild each rack's member list from rackOf/rackPos.
	for r := range idx.rmax {
		members := make([]int32, idx.rmax[r].base)
		for i := range members {
			members[i] = -1
		}
		count := 0
		for m := range idx.loads {
			if int(idx.rackOf[m]) == r {
				members[idx.rackPos[m]] = int32(m)
				count++
			}
		}
		rackLeaf := func(pad float64) func(pos int) (float64, int32) {
			return func(pos int) (float64, int32) {
				if pos >= count {
					return pad, -1
				}
				m := members[pos]
				if m < 0 {
					return pad, -1
				}
				return idx.loads[m], m
			}
		}
		name := fmt.Sprintf("rmax[%d]", r)
		if err := check(name, &idx.rmax[r], rackLeaf(maxPad)); err != nil {
			return err
		}
		name = fmt.Sprintf("rmin[%d]", r)
		if err := check(name, &idx.rmin[r], rackLeaf(minPad)); err != nil {
			return err
		}
	}
	return nil
}
