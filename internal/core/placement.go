package core

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"aurora/internal/loadindex"
	"aurora/internal/topology"
)

// Placement is the mutable assignment of block replicas to machines, with
// incremental load bookkeeping. It is the state all placement algorithms
// operate on.
//
// Beyond the per-machine load scalars, every mutation maintains two
// ordered structures the local search depends on (DESIGN.md "Hot-path
// data structures"):
//
//   - a loadindex.Index over machine loads, making the extreme-machine
//     queries (MaxLoadedMachine and friends) O(log M) instead of O(M);
//   - per machine, the held blocks sorted ascending by exact
//     (per-replica popularity, block ID), so the search iterates
//     candidate blocks without re-sorting per probe.
//
// Placement is not safe for concurrent use; the optimizer serializes
// access.
type Placement struct {
	cluster *topology.Cluster
	// rackOf maps each machine to its rack. It is immutable, so clones
	// share it.
	rackOf []topology.RackID
	// blocks maps each block to its slot in states. Neither holds a
	// pointer to a block's state, so a clone copies both in bulk; free
	// lists the slots deleted blocks left, for AddBlock to reuse.
	blocks   map[BlockID]int32
	states   []blockState
	free     []int32
	machines []machineState
	rackLoad []float64
	rackUsed []int // replicas stored per rack (disk-usage tie-breaks)
	replicas int   // cached Σ_i k_i
	idx      *loadindex.Index
	// tracking turns on change recording (TrackChanges); changed lists
	// each block whose replica set or spec changed since the last
	// DrainChanges, once per block thanks to blockState.changed.
	tracking bool
	changed  []BlockID
}

// blockState tracks one block's holders. replicas is kept sorted
// ascending by machine ID: replica sets are small (k_i), so a sorted
// slice beats a map on every operation the hot path performs —
// membership probes, iteration, and cloning — and makes iteration order
// deterministic for free. The state holds no map and no pointer of its
// own beyond the holder list, so Clone copies it by value.
type blockState struct {
	spec     BlockSpec
	replicas []topology.MachineID
	// spread is the number of distinct racks among replicas, kept by
	// addHolder and removeHolder. A rule that needs one rack's replica
	// count derives it from the holder list (rackHolders), a scan of k_i
	// machine IDs, so the state keeps no per-rack table to copy.
	spread int
	// changed is set while the block is on its placement's changed list.
	changed bool
}

// holdersFind returns the position of m in the ascending holder list s,
// and whether it is present (the insertion point when absent).
func holdersFind(s []topology.MachineID, m topology.MachineID) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < m {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo] == m
}

// block returns block id's state. The pointer is valid until the next
// AddBlock.
func (p *Placement) block(id BlockID) (*blockState, bool) {
	i, ok := p.blocks[id]
	if !ok {
		return nil, false
	}
	return &p.states[i], true
}

// hasHolder reports whether machine m holds a replica of b.
func (b *blockState) hasHolder(m topology.MachineID) bool {
	_, ok := holdersFind(b.replicas, m)
	return ok
}

// rackHolders counts b's replicas in rack r.
func (p *Placement) rackHolders(b *blockState, r topology.RackID) int {
	n := 0
	for _, m := range b.replicas {
		if p.rackOf[m] == r {
			n++
		}
	}
	return n
}

// addHolder inserts m into b's holder list and keeps b's rack spread.
// The caller has verified m is not already present.
func (p *Placement) addHolder(b *blockState, m topology.MachineID) {
	if p.rackHolders(b, p.rackOf[m]) == 0 {
		b.spread++
	}
	i, _ := holdersFind(b.replicas, m)
	b.replicas = append(b.replicas, 0)
	copy(b.replicas[i+1:], b.replicas[i:])
	b.replicas[i] = m
}

// removeHolder deletes m from b's holder list and keeps b's rack
// spread. A miss means the incremental bookkeeping is corrupt, which is
// a bug.
func (p *Placement) removeHolder(b *blockState, m topology.MachineID) {
	i, ok := holdersFind(b.replicas, m)
	if !ok {
		panic(fmt.Sprintf("core: machine %d is not a holder of block %d", m, b.spec.ID))
	}
	copy(b.replicas[i:], b.replicas[i+1:])
	b.replicas = b.replicas[:len(b.replicas)-1]
	if p.rackHolders(b, p.rackOf[m]) == 0 {
		b.spread--
	}
}

// blockRef is one entry of a machine's popularity-sorted block list. The
// stored pop is bit-identical to the block's current per-replica
// popularity: perReplica() is a pure float64 division, so recomputing it
// from unchanged inputs reproduces the stored bits exactly, which is what
// lets removals locate entries by binary search.
type blockRef struct {
	id  BlockID
	pop float64
}

type machineState struct {
	load float64
	// sorted holds the machine's blocks ascending by (per-replica
	// popularity, ID) under the exact total order refLess. It is the
	// machine's only block registry: its length is the used capacity, and
	// machine→block membership queries go through the block's holder list
	// instead.
	sorted []blockRef
}

// refLess is the exact strict total order on (popularity, ID) keys. It
// deliberately uses no tolerance: a comparator with approximate ties is
// not transitive, so an incrementally maintained list could diverge from
// a freshly sorted one.
func refLess(aPop float64, aID BlockID, bPop float64, bID BlockID) bool {
	if aPop < bPop {
		return true
	}
	if aPop > bPop {
		return false
	}
	return aID < bID
}

// lowerBound returns the first index in s whose key is >= (pop, id).
// Hand-rolled so the hot path spends no allocations on closures.
func lowerBound(s []blockRef, pop float64, id BlockID) int {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if refLess(s[mid].pop, s[mid].id, pop, id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sortedInsert adds (id, pop) to machine m's ordered block list.
func (p *Placement) sortedInsert(m topology.MachineID, id BlockID, pop float64) {
	s := p.machines[m].sorted
	i := lowerBound(s, pop, id)
	s = append(s, blockRef{})
	copy(s[i+1:], s[i:])
	s[i] = blockRef{id: id, pop: pop}
	p.machines[m].sorted = s
}

// sortedRemove deletes (id, pop) from machine m's ordered block list. The
// pop key must be the exact value the entry was inserted with; a miss
// means the incremental bookkeeping is corrupt, which is a bug.
func (p *Placement) sortedRemove(m topology.MachineID, id BlockID, pop float64) {
	s := p.machines[m].sorted
	i := lowerBound(s, pop, id)
	if i >= len(s) || s[i].id != id {
		panic(fmt.Sprintf("core: machine %d has no sorted entry for block %d at popularity %v", m, id, pop))
	}
	copy(s[i:], s[i+1:])
	p.machines[m].sorted = s[:len(s)-1]
}

// addLoad applies a load delta to machine m, keeping the load index in
// sync. All load mutations go through here.
func (p *Placement) addLoad(m topology.MachineID, delta float64) {
	p.machines[m].load += delta
	p.idx.Update(int(m), p.machines[m].load)
}

// loadIndex exposes the incremental index to the search implementations
// in this package.
func (p *Placement) loadIndex() *loadindex.Index { return p.idx }

// NewPlacement creates an empty placement (no replicas) for the given
// blocks over the given cluster.
func NewPlacement(cluster *topology.Cluster, specs []BlockSpec) (*Placement, error) {
	if cluster == nil || cluster.NumMachines() == 0 {
		return nil, topology.ErrNoMachines
	}
	rackOf := cluster.RackAssignments()
	p := &Placement{
		cluster:  cluster,
		rackOf:   rackOf,
		blocks:   make(map[BlockID]int32, len(specs)),
		states:   make([]blockState, 0, len(specs)),
		machines: make([]machineState, cluster.NumMachines()),
		rackLoad: make([]float64, cluster.NumRacks()),
		rackUsed: make([]int, cluster.NumRacks()),
	}
	racks := make([]int, len(rackOf))
	for i, r := range rackOf {
		racks[i] = int(r)
	}
	p.idx = loadindex.New(make([]float64, cluster.NumMachines()), racks, cluster.NumRacks())
	for _, s := range specs {
		if err := p.AddBlock(s); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Cluster returns the cluster this placement is defined over.
func (p *Placement) Cluster() *topology.Cluster { return p.cluster }

// AddBlock registers a new, unplaced block.
func (p *Placement) AddBlock(s BlockSpec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if _, ok := p.blocks[s.ID]; ok {
		return fmt.Errorf("%w: block %d", ErrDuplicateBlock, s.ID)
	}
	if s.MinRacks > p.cluster.NumRacks() {
		return fmt.Errorf("%w: block %d requires %d racks, cluster has %d",
			ErrBadSpec, s.ID, s.MinRacks, p.cluster.NumRacks())
	}
	if s.MinReplicas > p.cluster.NumMachines() {
		return fmt.Errorf("%w: block %d requires %d replicas, cluster has %d machines",
			ErrBadSpec, s.ID, s.MinReplicas, p.cluster.NumMachines())
	}
	var slot int32
	if n := len(p.free); n > 0 {
		slot, p.free = p.free[n-1], p.free[:n-1]
	} else {
		slot = int32(len(p.states))
		p.states = append(p.states, blockState{})
	}
	p.states[slot] = blockState{spec: s}
	p.blocks[s.ID] = slot
	p.markChanged(s.ID, &p.states[slot])
	return nil
}

// DeleteBlock removes a block and all its replicas from the placement.
func (p *Placement) DeleteBlock(id BlockID) error {
	b, ok := p.block(id)
	if !ok {
		return fmt.Errorf("%w: block %d", ErrUnknownBlock, id)
	}
	p.markChanged(id, b)
	perReplica := b.perReplica()
	for _, m := range b.replicas {
		p.sortedRemove(m, id, perReplica)
		p.addLoad(m, -perReplica)
		rack := p.rackOf[m]
		p.rackLoad[rack] -= perReplica
		p.rackUsed[rack]--
	}
	p.replicas -= len(b.replicas)
	slot := p.blocks[id]
	p.states[slot] = blockState{}
	p.free = append(p.free, slot)
	delete(p.blocks, id)
	return nil
}

// SetPopularity updates a block's total popularity, rescaling the load it
// contributes to its current holders. This is how each optimization epoch
// feeds fresh usage-monitor data into an existing placement.
func (p *Placement) SetPopularity(id BlockID, popularity float64) error {
	if popularity < 0 {
		return fmt.Errorf("%w: negative popularity %v", ErrBadSpec, popularity)
	}
	b, ok := p.block(id)
	if !ok {
		return fmt.Errorf("%w: block %d", ErrUnknownBlock, id)
	}
	old := b.perReplica()
	b.spec.Popularity = popularity
	p.reloadBlock(id, b, old, topology.NoMachine)
	return nil
}

// SetMinReplicas changes block id's node-level floor k_low, as when a
// file's replication factor is changed at run time. It moves no replica.
func (p *Placement) SetMinReplicas(id BlockID, k int) error {
	b, ok := p.block(id)
	if !ok {
		return fmt.Errorf("%w: block %d", ErrUnknownBlock, id)
	}
	s := b.spec
	s.MinReplicas = k
	if err := s.Validate(); err != nil {
		return err
	}
	if k > p.cluster.NumMachines() {
		return fmt.Errorf("%w: block %d requires %d replicas, cluster has %d machines",
			ErrBadSpec, id, k, p.cluster.NumMachines())
	}
	b.spec = s
	p.markChanged(id, b)
	return nil
}

// Spec returns the spec of block id.
func (p *Placement) Spec(id BlockID) (BlockSpec, error) {
	b, ok := p.block(id)
	if !ok {
		return BlockSpec{}, fmt.Errorf("%w: block %d", ErrUnknownBlock, id)
	}
	return b.spec, nil
}

// Blocks returns all block IDs in ascending order.
func (p *Placement) Blocks() []BlockID {
	return p.AppendBlocks(make([]BlockID, 0, len(p.blocks)))
}

// AppendBlocks appends all block IDs to buf in ascending order and
// returns the extended slice. Callers that poll repeatedly (invariant
// checks, epoch loops) reuse buf to avoid per-call allocations.
func (p *Placement) AppendBlocks(buf []BlockID) []BlockID {
	start := len(buf)
	for id := range p.blocks {
		buf = append(buf, id)
	}
	slices.Sort(buf[start:])
	return buf
}

// NumBlocks reports how many blocks are registered.
func (p *Placement) NumBlocks() int { return len(p.blocks) }

// TrackChanges makes p record, from now on, every block whose replica
// set or spec changes — an added or deleted block, an added, removed,
// moved or swapped replica, a new MinReplicas — so an owner that must react to
// such changes (the DFS namenode's reconcile pass) visits those blocks
// instead of the whole map. Recording costs one flag test per mutation
// and one append per block between drains. Clones do not track.
func (p *Placement) TrackChanges() { p.tracking = true }

// DrainChanges appends the blocks recorded since the last drain to buf,
// in no particular order, and forgets them. A deleted block is reported
// like any other; one deleted and re-added between two drains may be
// reported twice.
func (p *Placement) DrainChanges(buf []BlockID) []BlockID {
	for _, id := range p.changed {
		if b, ok := p.block(id); ok {
			b.changed = false
		}
	}
	buf = append(buf, p.changed...)
	p.changed = p.changed[:0]
	return buf
}

// markChanged records block id (state b) when p tracks changes.
func (p *Placement) markChanged(id BlockID, b *blockState) {
	if p.tracking && !b.changed {
		b.changed = true
		p.changed = append(p.changed, id)
	}
}

// perReplica is the load one replica of the block contributes: P_i / k_i
// with the *current* replica count (zero if unplaced).
func (b *blockState) perReplica() float64 {
	if len(b.replicas) == 0 {
		return 0
	}
	return b.spec.Popularity / float64(len(b.replicas))
}

// reloadBlock recomputes the load contribution of block id on its
// holders, all but fresh (a holder already placed at the new rate, or
// topology.NoMachine), after its per-replica popularity changed from
// oldPerReplica. It does nothing when the value is bit-unchanged, as it
// always is for a popularity-0 block. The test is bit-equality, not
// floatEq: the sorted block lists key on exact popularity values, so any
// bit-level change must reposition the entries even when numerically
// negligible.
func (p *Placement) reloadBlock(id BlockID, b *blockState, oldPerReplica float64, fresh topology.MachineID) {
	newPerReplica := b.perReplica()
	if math.Float64bits(newPerReplica) == math.Float64bits(oldPerReplica) {
		return
	}
	delta := newPerReplica - oldPerReplica
	for _, m := range b.replicas {
		if m == fresh {
			continue
		}
		p.sortedRemove(m, id, oldPerReplica)
		p.sortedInsert(m, id, newPerReplica)
		p.addLoad(m, delta)
		p.rackLoad[p.cluster.MustMachine(m).Rack] += delta
	}
}

// AddReplica places one replica of block id on machine m. The demand for
// the block re-divides among the enlarged replica set, so loads of the
// existing holders shrink.
func (p *Placement) AddReplica(id BlockID, m topology.MachineID) error {
	b, ok := p.block(id)
	if !ok {
		return fmt.Errorf("%w: block %d", ErrUnknownBlock, id)
	}
	mach, err := p.cluster.Machine(m)
	if err != nil {
		return err
	}
	if b.hasHolder(m) {
		return fmt.Errorf("%w: block %d on machine %d", ErrAlreadyPlaced, id, m)
	}
	if len(p.machines[m].sorted) >= mach.Capacity {
		return fmt.Errorf("%w: machine %d", ErrMachineFull, m)
	}
	old := b.perReplica()
	p.markChanged(id, b)
	p.addHolder(b, m)
	p.replicas++
	// The new holder picks up the new per-replica load; existing holders
	// are rescaled from the old value.
	newPerReplica := b.perReplica()
	p.sortedInsert(m, id, newPerReplica)
	p.addLoad(m, newPerReplica)
	p.rackLoad[mach.Rack] += newPerReplica
	p.rackUsed[mach.Rack]++
	p.reloadBlock(id, b, old, m)
	return nil
}

// RemoveReplica removes the replica of block id from machine m. It does
// not enforce MinReplicas — lazy deletion and intermediate optimizer
// states legitimately drop below it; call Feasible to check the final
// state.
func (p *Placement) RemoveReplica(id BlockID, m topology.MachineID) error {
	b, ok := p.block(id)
	if !ok {
		return fmt.Errorf("%w: block %d", ErrUnknownBlock, id)
	}
	if !b.hasHolder(m) {
		return fmt.Errorf("%w: block %d on machine %d", ErrNotPlaced, id, m)
	}
	mach := p.cluster.MustMachine(m)
	old := b.perReplica()
	p.markChanged(id, b)
	p.removeHolder(b, m)
	p.replicas--
	p.sortedRemove(m, id, old)
	p.addLoad(m, -old)
	p.rackLoad[mach.Rack] -= old
	p.rackUsed[mach.Rack]--
	p.reloadBlock(id, b, old, topology.NoMachine)
	return nil
}

// MoveReplica relocates a replica of block id from machine `from` to
// machine `to` atomically: the replica count is unchanged and the rack
// spread requirement is verified before anything is mutated.
func (p *Placement) MoveReplica(id BlockID, from, to topology.MachineID) error {
	b, ok := p.block(id)
	if !ok {
		return fmt.Errorf("%w: block %d", ErrUnknownBlock, id)
	}
	if !b.hasHolder(from) {
		return fmt.Errorf("%w: block %d on machine %d", ErrNotPlaced, id, from)
	}
	if b.hasHolder(to) {
		return fmt.Errorf("%w: block %d on machine %d", ErrAlreadyPlaced, id, to)
	}
	toMach, err := p.cluster.Machine(to)
	if err != nil {
		return err
	}
	if len(p.machines[to].sorted) >= toMach.Capacity {
		return fmt.Errorf("%w: machine %d", ErrMachineFull, to)
	}
	if p.rackSpreadAfterMove(b, from, to) < b.spec.MinRacks && p.RackSpread(id) >= b.spec.MinRacks {
		return fmt.Errorf("%w: block %d move %d->%d", ErrRackConstraint, id, from, to)
	}
	perReplica := b.perReplica()
	fromMach := p.cluster.MustMachine(from)
	p.markChanged(id, b)
	p.removeHolder(b, from)
	p.sortedRemove(from, id, perReplica)
	p.addLoad(from, -perReplica)
	p.rackLoad[fromMach.Rack] -= perReplica
	p.rackUsed[fromMach.Rack]--

	p.addHolder(b, to)
	p.sortedInsert(to, id, perReplica)
	p.addLoad(to, perReplica)
	p.rackLoad[toMach.Rack] += perReplica
	p.rackUsed[toMach.Rack]++
	return nil
}

// rackSpreadAfterMove computes the number of distinct racks holding block
// b if one replica moved from machine `from` to machine `to`.
func (p *Placement) rackSpreadAfterMove(b *blockState, from, to topology.MachineID) int {
	return p.rackSpreadAfterMoveRacks(b, p.rackOf[from], p.rackOf[to])
}

// rackSpreadAfterMoveRacks is rackSpreadAfterMove for callers that
// already resolved the racks (the search hoists them per machine pair).
func (p *Placement) rackSpreadAfterMoveRacks(b *blockState, fromRack, toRack topology.RackID) int {
	spread := b.spread
	if fromRack == toRack {
		return spread
	}
	inFrom, inTo := 0, 0
	for _, m := range b.replicas {
		switch p.rackOf[m] {
		case fromRack:
			inFrom++
		case toRack:
			inTo++
		}
	}
	if inFrom == 1 {
		spread--
	}
	if inTo == 0 {
		spread++
	}
	return spread
}

// CanMove reports whether MoveReplica(id, from, to) would succeed.
func (p *Placement) CanMove(id BlockID, from, to topology.MachineID) bool {
	b, ok := p.block(id)
	if !ok {
		return false
	}
	if !b.hasHolder(from) {
		return false
	}
	if b.hasHolder(to) {
		return false
	}
	toMach, err := p.cluster.Machine(to)
	if err != nil || len(p.machines[to].sorted) >= toMach.Capacity {
		return false
	}
	if p.rackSpreadAfterMove(b, from, to) < b.spec.MinRacks && p.RackSpread(id) >= b.spec.MinRacks {
		return false
	}
	return true
}

// SwapReplicas exchanges a replica of block i on machine m with a replica
// of block j on machine n, atomically. Capacities are unaffected (one
// replica leaves and one arrives on each machine); rack spread is
// verified for both blocks before mutation.
func (p *Placement) SwapReplicas(i BlockID, m topology.MachineID, j BlockID, n topology.MachineID) error {
	if i == j {
		return fmt.Errorf("%w: cannot swap block %d with itself", ErrBadSpec, i)
	}
	if m == n {
		return fmt.Errorf("%w: cannot swap on a single machine %d", ErrBadSpec, m)
	}
	bi, ok := p.block(i)
	if !ok {
		return fmt.Errorf("%w: block %d", ErrUnknownBlock, i)
	}
	bj, ok := p.block(j)
	if !ok {
		return fmt.Errorf("%w: block %d", ErrUnknownBlock, j)
	}
	if !bi.hasHolder(m) {
		return fmt.Errorf("%w: block %d on machine %d", ErrNotPlaced, i, m)
	}
	if !bj.hasHolder(n) {
		return fmt.Errorf("%w: block %d on machine %d", ErrNotPlaced, j, n)
	}
	if bi.hasHolder(n) {
		return fmt.Errorf("%w: block %d on machine %d", ErrAlreadyPlaced, i, n)
	}
	if bj.hasHolder(m) {
		return fmt.Errorf("%w: block %d on machine %d", ErrAlreadyPlaced, j, m)
	}
	if p.rackSpreadAfterMove(bi, m, n) < bi.spec.MinRacks && p.RackSpread(i) >= bi.spec.MinRacks {
		return fmt.Errorf("%w: block %d swap %d<->%d", ErrRackConstraint, i, m, n)
	}
	if p.rackSpreadAfterMove(bj, n, m) < bj.spec.MinRacks && p.RackSpread(j) >= bj.spec.MinRacks {
		return fmt.Errorf("%w: block %d swap %d<->%d", ErrRackConstraint, j, n, m)
	}

	pi, pj := bi.perReplica(), bj.perReplica()
	mRack := p.rackOf[m]
	nRack := p.rackOf[n]

	p.markChanged(i, bi)
	p.markChanged(j, bj)

	// i: m -> n
	p.removeHolder(bi, m)
	p.addHolder(bi, n)
	p.sortedRemove(m, i, pi)
	p.sortedInsert(n, i, pi)

	// j: n -> m
	p.removeHolder(bj, n)
	p.addHolder(bj, m)
	p.sortedRemove(n, j, pj)
	p.sortedInsert(m, j, pj)

	p.addLoad(m, pj-pi)
	p.addLoad(n, pi-pj)
	p.rackLoad[mRack] += pj - pi
	p.rackLoad[nRack] += pi - pj
	// rackUsed is unchanged: each machine loses one replica and gains one.
	return nil
}

// CanSwap reports whether SwapReplicas(i, m, j, n) would succeed.
func (p *Placement) CanSwap(i BlockID, m topology.MachineID, j BlockID, n topology.MachineID) bool {
	if i == j || m == n {
		return false
	}
	bi, ok := p.block(i)
	if !ok {
		return false
	}
	bj, ok := p.block(j)
	if !ok {
		return false
	}
	if !bi.hasHolder(m) {
		return false
	}
	if !bj.hasHolder(n) {
		return false
	}
	if bi.hasHolder(n) {
		return false
	}
	if bj.hasHolder(m) {
		return false
	}
	if p.rackSpreadAfterMove(bi, m, n) < bi.spec.MinRacks && p.RackSpread(i) >= bi.spec.MinRacks {
		return false
	}
	if p.rackSpreadAfterMove(bj, n, m) < bj.spec.MinRacks && p.RackSpread(j) >= bj.spec.MinRacks {
		return false
	}
	return true
}

// HasReplica reports whether machine m holds a replica of block id.
func (p *Placement) HasReplica(id BlockID, m topology.MachineID) bool {
	b, ok := p.block(id)
	if !ok {
		return false
	}
	return b.hasHolder(m)
}

// Replicas returns the machines holding block id, in ascending order.
func (p *Placement) Replicas(id BlockID) []topology.MachineID {
	b, ok := p.block(id)
	if !ok {
		return nil
	}
	return p.AppendReplicas(id, make([]topology.MachineID, 0, len(b.replicas)))
}

// AppendReplicas appends the machines holding block id to buf in
// ascending order and returns the extended slice. The holder list is
// stored sorted, so this is a straight copy.
func (p *Placement) AppendReplicas(id BlockID, buf []topology.MachineID) []topology.MachineID {
	b, ok := p.block(id)
	if !ok {
		return buf
	}
	return append(buf, b.replicas...)
}

// ReplicaCount returns k_i, the current replica count of block id (zero
// for unknown blocks).
func (p *Placement) ReplicaCount(id BlockID) int {
	b, ok := p.block(id)
	if !ok {
		return 0
	}
	return len(b.replicas)
}

// RackSpread returns the number of distinct racks holding block id.
func (p *Placement) RackSpread(id BlockID) int {
	b, ok := p.block(id)
	if !ok {
		return 0
	}
	return b.spread
}

// InRack reports whether any replica of block id sits in rack r.
func (p *Placement) InRack(id BlockID, r topology.RackID) bool {
	b, ok := p.block(id)
	return ok && p.rackHolders(b, r) > 0
}

// RemovalKeepsSpread reports whether block id would still span its own
// MinRacks racks without its replica on m. It is the one place that
// decides this — for the optimizer's evictions, the baselines' and the
// namenode's — from the kept spread and, only when the spread is exactly
// MinRacks, one scan of the holder list.
func (p *Placement) RemovalKeepsSpread(id BlockID, m topology.MachineID) bool {
	b, ok := p.block(id)
	if !ok || !b.hasHolder(m) {
		return false
	}
	if b.spread > b.spec.MinRacks {
		return true
	}
	spread := b.spread
	if p.rackHolders(b, p.rackOf[m]) == 1 {
		spread--
	}
	return spread >= b.spec.MinRacks
}

// PerReplicaPopularity returns p_i = P_i / k_i for block id (zero if
// unplaced).
func (p *Placement) PerReplicaPopularity(id BlockID) float64 {
	b, ok := p.block(id)
	if !ok {
		return 0
	}
	return b.perReplica()
}

// Load returns the popularity load of machine m.
func (p *Placement) Load(m topology.MachineID) float64 {
	if int(m) < 0 || int(m) >= len(p.machines) {
		return 0
	}
	return p.machines[m].load
}

// Loads returns the full machine-load vector indexed by MachineID.
func (p *Placement) Loads() []float64 {
	return p.AppendLoads(make([]float64, 0, len(p.machines)))
}

// AppendLoads appends the machine-load vector (indexed by MachineID from
// the start of the appended region) to buf and returns the extended
// slice.
func (p *Placement) AppendLoads(buf []float64) []float64 {
	for i := range p.machines {
		buf = append(buf, p.machines[i].load)
	}
	return buf
}

// RackLoadOf returns the total popularity load of rack r.
func (p *Placement) RackLoadOf(r topology.RackID) float64 {
	if int(r) < 0 || int(r) >= len(p.rackLoad) {
		return 0
	}
	return p.rackLoad[r]
}

// Cost returns the optimization objective λ: the maximum machine load.
// The floor at zero matches the scan it replaced, which started from 0.
func (p *Placement) Cost() float64 {
	if c := p.machines[p.idx.Max()].load; c > 0 {
		return c
	}
	return 0
}

// Used returns the number of block replicas on machine m.
func (p *Placement) Used(m topology.MachineID) int {
	if int(m) < 0 || int(m) >= len(p.machines) {
		return 0
	}
	return len(p.machines[m].sorted)
}

// FreeCapacity returns the remaining replica slots on machine m.
func (p *Placement) FreeCapacity(m topology.MachineID) int {
	return p.cluster.Capacity(m) - p.Used(m)
}

// TotalReplicas returns Σ_i k_i over all blocks.
func (p *Placement) TotalReplicas() int { return p.replicas }

// BlocksOn returns the blocks stored on machine m, in ascending ID order.
func (p *Placement) BlocksOn(m topology.MachineID) []BlockID {
	if int(m) < 0 || int(m) >= len(p.machines) {
		return nil
	}
	buf := make([]BlockID, 0, len(p.machines[m].sorted))
	for _, ref := range p.machines[m].sorted {
		buf = append(buf, ref.id)
	}
	slices.Sort(buf)
	return buf
}

// MaxLoadedMachine returns the machine with the highest load; ties break
// toward the lowest machine ID so the algorithms are deterministic. The
// index's prefer-left tie-break reproduces the linear scan's keep-first
// behavior exactly.
func (p *Placement) MaxLoadedMachine() topology.MachineID {
	return topology.MachineID(p.idx.Max())
}

// MinLoadedMachine returns the machine with the lowest load (lowest ID on
// ties).
func (p *Placement) MinLoadedMachine() topology.MachineID {
	return topology.MachineID(p.idx.Min())
}

// MaxLoadedMachineInRack returns the highest-loaded machine within rack r.
func (p *Placement) MaxLoadedMachineInRack(r topology.RackID) (topology.MachineID, error) {
	if int(r) < 0 || int(r) >= p.cluster.NumRacks() {
		return topology.NoMachine, fmt.Errorf("%w: rack %d", topology.ErrUnknownRack, r)
	}
	return topology.MachineID(p.idx.MaxInRack(int(r))), nil
}

// MinLoadedMachineInRack returns the lowest-loaded machine within rack r.
func (p *Placement) MinLoadedMachineInRack(r topology.RackID) (topology.MachineID, error) {
	if int(r) < 0 || int(r) >= p.cluster.NumRacks() {
		return topology.NoMachine, fmt.Errorf("%w: rack %d", topology.ErrUnknownRack, r)
	}
	return topology.MachineID(p.idx.MinInRack(int(r))), nil
}

// MaxPerReplicaPopularity returns p_max, the largest per-replica
// popularity across all placed blocks. It appears in the additive
// approximation bounds (Theorems 2 and 4).
func (p *Placement) MaxPerReplicaPopularity() float64 {
	max := 0.0
	for _, i := range p.blocks {
		if pr := p.states[i].perReplica(); pr > max {
			max = pr
		}
	}
	return max
}

// Feasible reports whether block id currently satisfies its node- and
// rack-level fault-tolerance requirements.
func (p *Placement) Feasible(id BlockID) bool {
	b, ok := p.block(id)
	if !ok {
		return false
	}
	return len(b.replicas) >= b.spec.MinReplicas && b.spread >= b.spec.MinRacks
}

// CheckFeasible returns ErrInfeasible (wrapped, naming the first
// offending block) unless every block satisfies its requirements.
func (p *Placement) CheckFeasible() error {
	for _, id := range p.Blocks() {
		if !p.Feasible(id) {
			b, _ := p.block(id)
			return fmt.Errorf("%w: block %d has %d replicas (need %d) across %d racks (need %d)",
				ErrInfeasible, id, len(b.replicas), b.spec.MinReplicas, b.spread, b.spec.MinRacks)
		}
	}
	return nil
}

// Clone deep-copies the placement. The clone shares the immutable
// cluster and rack map, does not track changes, and allocates per
// placement, not per block: the block map and the block states are
// copied in bulk, and every holder list and every machine's sorted list
// is carved from one slab each. Each carved list has a little spare
// capacity of its own — a holder list one slot, a sorted list an eighth
// — so the first mutations after a copy do not reallocate, and
// appending past it reallocates that list alone: no two lists share
// capacity.
func (p *Placement) Clone() *Placement {
	c := &Placement{
		cluster:  p.cluster,
		rackOf:   p.rackOf,
		blocks:   maps.Clone(p.blocks),
		states:   slices.Clone(p.states),
		free:     slices.Clone(p.free),
		machines: make([]machineState, len(p.machines)),
		rackLoad: slices.Clone(p.rackLoad),
		rackUsed: slices.Clone(p.rackUsed),
		replicas: p.replicas,
		idx:      p.idx.Clone(),
	}
	refs := 0
	for i := range p.machines {
		refs += sortedCap(len(p.machines[i].sorted))
	}
	refSlab := make([]blockRef, refs)
	for i := range p.machines {
		src := p.machines[i].sorted
		n, end := len(src), sortedCap(len(src))
		c.machines[i] = machineState{load: p.machines[i].load, sorted: refSlab[:n:end]}
		copy(refSlab, src)
		refSlab = refSlab[end:]
	}
	holders := make([]topology.MachineID, p.replicas+len(c.states))
	for i := range c.states {
		b := &c.states[i]
		n := len(b.replicas)
		b.replicas = append(holders[:0:n+1], b.replicas...)
		b.changed = false
		holders = holders[n+1:]
	}
	return c
}

// Rebase makes every block in ids match its state in live, a placement
// over the same cluster: a block live no longer has is deleted, one p
// lacks is added with live's spec, and every other one takes live's
// MinReplicas, MinRacks and replica set but keeps p's popularity. All
// removals run before any addition, so a rebased replica competes for a
// machine's capacity only with p's replicas of blocks outside ids. One
// that still does not fit fails with ErrMachineFull and leaves p partly
// rebased, for the caller to discard. ids in ascending order make the
// result deterministic to the bit.
func (p *Placement) Rebase(live *Placement, ids []BlockID) error {
	for _, id := range ids {
		b, ok := p.block(id)
		if !ok {
			continue
		}
		lb, ok := live.block(id)
		if !ok {
			//lint:ignore errcheck the block was just looked up; deletion cannot fail
			_ = p.DeleteBlock(id)
			continue
		}
		for k := len(b.replicas) - 1; k >= 0; k-- {
			if m := b.replicas[k]; !lb.hasHolder(m) {
				//lint:ignore errcheck m was just enumerated; removal cannot fail
				_ = p.RemoveReplica(id, m)
			}
		}
	}
	for _, id := range ids {
		lb, ok := live.block(id)
		if !ok {
			continue
		}
		if _, ok := p.blocks[id]; !ok {
			if err := p.AddBlock(lb.spec); err != nil {
				return fmt.Errorf("core: rebase block %d: %w", id, err)
			}
		}
		b, _ := p.block(id)
		if b.spec.MinReplicas != lb.spec.MinReplicas || b.spec.MinRacks != lb.spec.MinRacks {
			b.spec.MinReplicas, b.spec.MinRacks = lb.spec.MinReplicas, lb.spec.MinRacks
			p.markChanged(id, b)
		}
		for _, m := range lb.replicas {
			if b.hasHolder(m) {
				continue
			}
			if err := p.AddReplica(id, m); err != nil {
				return fmt.Errorf("core: rebase block %d: %w", id, err)
			}
		}
	}
	return nil
}

// sortedCap is the capacity Clone gives a machine's sorted list of n
// entries.
func sortedCap(n int) int { return n + n/8 + 4 }

// Validate recomputes all derived state from scratch and compares it to
// the incremental bookkeeping. Intended for tests and fuzzing; it is
// O(blocks x replicas).
func (p *Placement) Validate() error {
	const eps = 1e-6
	loads := make([]float64, len(p.machines))
	rackLoads := make([]float64, len(p.rackLoad))
	counts := make([]int, len(p.machines))
	for id, slot := range p.blocks {
		b := &p.states[slot]
		perReplica := b.perReplica()
		rackSeen := make(map[topology.RackID]bool)
		for k, m := range b.replicas {
			if k > 0 && b.replicas[k-1] >= m {
				return fmt.Errorf("core: block %d holder list out of order at %d: %d !< %d",
					id, k, b.replicas[k-1], m)
			}
			mach, err := p.cluster.Machine(m)
			if err != nil {
				return fmt.Errorf("core: block %d on invalid machine %d: %w", id, m, err)
			}
			s := p.machines[m].sorted
			if i := lowerBound(s, perReplica, id); i >= len(s) || s[i].id != id {
				return fmt.Errorf("core: block %d lists machine %d but machine's sorted list has no entry", id, m)
			}
			loads[m] += perReplica
			rackLoads[mach.Rack] += perReplica
			counts[m]++
			rackSeen[mach.Rack] = true
		}
		if len(rackSeen) != b.spread {
			return fmt.Errorf("core: block %d rack spread is %d, bookkeeping says %d", id, len(rackSeen), b.spread)
		}
	}
	for i := range p.machines {
		s := p.machines[i].sorted
		if len(s) != counts[i] {
			return fmt.Errorf("core: machine %d sorted list has %d entries, recomputed count is %d", i, len(s), counts[i])
		}
		for j, ref := range s {
			if j > 0 && !refLess(s[j-1].pop, s[j-1].id, ref.pop, ref.id) {
				return fmt.Errorf("core: machine %d sorted list out of order at %d: (%v,%d) !< (%v,%d)",
					i, j, s[j-1].pop, s[j-1].id, ref.pop, ref.id)
			}
			b, ok := p.block(ref.id)
			if !ok {
				return fmt.Errorf("core: machine %d sorted list names unknown block %d", i, ref.id)
			}
			if !b.hasHolder(topology.MachineID(i)) {
				return fmt.Errorf("core: machine %d lists block %d but block does not list machine", i, ref.id)
			}
			if math.Float64bits(ref.pop) != math.Float64bits(b.perReplica()) {
				return fmt.Errorf("core: machine %d sorted entry for block %d stores popularity %v, current per-replica is %v",
					i, ref.id, ref.pop, b.perReplica())
			}
		}
		if counts[i] > p.cluster.Capacity(topology.MachineID(i)) {
			return fmt.Errorf("core: machine %d over capacity: %d > %d", i, counts[i], p.cluster.Capacity(topology.MachineID(i)))
		}
		if math.Abs(loads[i]-p.machines[i].load) > eps*(1+math.Abs(loads[i])) {
			return fmt.Errorf("core: machine %d load drift: recomputed %v, bookkeeping %v", i, loads[i], p.machines[i].load)
		}
	}
	for r := range p.rackLoad {
		if math.Abs(rackLoads[r]-p.rackLoad[r]) > eps*(1+math.Abs(rackLoads[r])) {
			return fmt.Errorf("core: rack %d load drift: recomputed %v, bookkeeping %v", r, rackLoads[r], p.rackLoad[r])
		}
	}
	rackCounts := make([]int, len(p.rackUsed))
	for i := range p.machines {
		if r, err := p.cluster.RackOf(topology.MachineID(i)); err == nil {
			rackCounts[r] += len(p.machines[i].sorted)
		}
	}
	for r := range p.rackUsed {
		if rackCounts[r] != p.rackUsed[r] {
			return fmt.Errorf("core: rack %d used drift: recomputed %d, bookkeeping %d", r, rackCounts[r], p.rackUsed[r])
		}
	}
	if len(p.blocks)+len(p.free) != len(p.states) {
		return fmt.Errorf("core: %d blocks and %d free slots, %d slots in all", len(p.blocks), len(p.free), len(p.states))
	}
	total := 0
	for _, slot := range p.blocks {
		total += len(p.states[slot].replicas)
	}
	if total != p.replicas {
		return fmt.Errorf("core: replica counter drift: recomputed %d, bookkeeping %d", total, p.replicas)
	}
	// The load index must agree bit-for-bit with the bookkeeping loads
	// (not the recomputed ones): every index update is fed the exact
	// incremental load value.
	bookkeeping := make([]float64, len(p.machines))
	for i := range p.machines {
		bookkeeping[i] = p.machines[i].load
	}
	if err := p.idx.Validate(bookkeeping); err != nil {
		return fmt.Errorf("core: load index: %w", err)
	}
	return nil
}
