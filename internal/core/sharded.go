package core

import (
	"fmt"

	"aurora/internal/loadindex"
	"aurora/internal/par"
	"aurora/internal/topology"
)

// This file implements sharding as a step inside one period: the flat
// placement is partitioned into N shards keyed by hash(BlockID), each
// shard a full Placement (its own sorted block lists, load index and
// optimizer budget share) over a quota share of the same physical
// cluster. Per-shard Algorithm-5 periods run concurrently over
// internal/par's bounded pool; a cheap cross-shard rebalance pass over
// shard-level load summaries then migrates replication budget between
// shards without touching any per-block state; and the resulting layout
// is replayed onto the flat placement (OptimizePartitioned). The quotas
// exist only for the period's compute.
//
// Sharding is sound at scale because per-shard popularity mass
// concentrates: hashing splits the Zipf head uniformly, so each shard's
// load distribution converges to a scaled copy of the global one (the
// mean-field regime; see PAPERS.md). The payoff is not only concurrency:
// every per-machine sorted list is ~N times shorter, so each local-search
// probe — which walks the source machine's list — costs ~1/N, and the
// replicate phase's heaps and maps shrink below cache-hostile sizes.

// ShardOf maps a block ID to its shard in [0, shards). The hash is the
// splitmix64 finalizer: block IDs are assigned densely, and a plain
// modulus would correlate shard with allocation order (and with the
// popularity rank in traces), defeating the mean-field uniformity the
// design relies on. shards <= 1 always maps to shard 0.
func ShardOf(id BlockID, shards int) int {
	if shards <= 1 {
		return 0
	}
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// shardQuota is the per-machine capacity quota each shard's cluster
// carries: an even split of the machine's capacity plus ~50% overcommit
// and a small absolute floor. The overcommit keeps shard-local placement
// feasible under the binomial skew of hash partitioning (a machine's
// replicas split ~Binomial(used, 1/N) across shards, and existing dense
// placements loaded into shards would otherwise overflow the tail
// cells). Per-shard quotas are therefore a soft partition: the real
// capacities are enforced when OptimizePartitioned replays the shards'
// layout onto the flat placement, not by the quota sum. shards == 1
// keeps the exact capacity.
func shardQuota(capacity, shards int) int {
	if shards <= 1 {
		return capacity
	}
	even := (capacity + shards - 1) / shards
	return even + (even+1)/2 + 8
}

// shardCluster derives the per-shard quota cluster from base. All shards
// share one quota cluster: it is immutable and identical for every
// shard. Machine and rack IDs are preserved exactly — the base cluster's
// machines may be interleaved across racks in any order (the namenode
// registers them that way), and a shard-local MachineID must denote the
// same physical machine, or rack spread and capacity would be computed
// against a permutation.
func shardCluster(base *topology.Cluster, shards int) (*topology.Cluster, error) {
	var b topology.Builder
	rackIDs := make(map[topology.RackID]topology.RackID, len(base.Racks()))
	for _, r := range base.Racks() {
		rackIDs[r] = b.AddRack()
	}
	for _, m := range base.Machines() {
		mach := base.MustMachine(m)
		mid, err := b.AddMachine(rackIDs[mach.Rack], shardQuota(mach.Capacity, shards), mach.Slots)
		if err != nil {
			return nil, err
		}
		if mid != m {
			return nil, fmt.Errorf("core: shard cluster id mismatch: %d vs %d", mid, m)
		}
	}
	return b.Build()
}

// ShardedPlacement partitions a block map into N independent Placements
// keyed by ShardOf, each over the quota cluster (shardQuota). It is the
// working state of one partitioned period (OptimizePartitioned): no
// block map is kept sharded between periods. With one shard it wraps a
// single Placement over the base cluster, bit-identical to the
// unsharded path. Like Placement it is not safe for concurrent use —
// except that distinct shards may be mutated concurrently (they share
// no mutable state), which is exactly what OptimizeSharded does.
type ShardedPlacement struct {
	base   *topology.Cluster
	shards []*Placement
	// shares is the optimizer state each period's rebalance pass updates:
	// how the extra replication budget (β minus the sum of minimum
	// factors) is apportioned across shards. nil until the first period;
	// see rebalanceShares.
	shares []int
}

// NewShardedPlacement creates an empty sharded placement over base with
// the given shard count (values below 1 are treated as 1) and registers
// the specs, routing each block to its hash shard.
func NewShardedPlacement(base *topology.Cluster, shards int, specs []BlockSpec) (*ShardedPlacement, error) {
	if shards < 1 {
		shards = 1
	}
	if shards == 1 {
		p, err := NewPlacement(base, specs)
		if err != nil {
			return nil, err
		}
		return singleShard(p), nil
	}
	sp := &ShardedPlacement{base: base}
	qc, err := shardCluster(base, shards)
	if err != nil {
		return nil, fmt.Errorf("core: shard cluster: %w", err)
	}
	perShard := make([][]BlockSpec, shards)
	for _, s := range specs {
		sh := ShardOf(s.ID, shards)
		perShard[sh] = append(perShard[sh], s)
	}
	sp.shards = make([]*Placement, shards)
	for i := range sp.shards {
		p, err := NewPlacement(qc, perShard[i])
		if err != nil {
			return nil, err
		}
		sp.shards[i] = p
	}
	return sp, nil
}

// singleShard is the one-shard view of p, without a copy: the view's
// only shard is p itself, so a write through either is seen by both.
func singleShard(p *Placement) *ShardedPlacement {
	return &ShardedPlacement{base: p.Cluster(), shards: []*Placement{p}}
}

// Shard returns shard i's Placement for direct (single-shard) use.
func (sp *ShardedPlacement) Shard(i int) *Placement { return sp.shards[i] }

// For returns the Placement owning block id.
func (sp *ShardedPlacement) For(id BlockID) *Placement {
	return sp.shards[ShardOf(id, len(sp.shards))]
}

// AddReplica adds a replica of block id on machine m in its shard.
func (sp *ShardedPlacement) AddReplica(id BlockID, m topology.MachineID) error {
	return sp.For(id).AddReplica(id, m)
}

// TotalReplicas reports Σ_i k_i across all shards.
func (sp *ShardedPlacement) TotalReplicas() int {
	n := 0
	for _, p := range sp.shards {
		n += p.TotalReplicas()
	}
	return n
}

// globalCost returns the global objective λ: the maximum per-machine
// load, each machine's load summed across shards in shard order. With
// one shard it equals Cost() of the underlying placement.
func (sp *ShardedPlacement) globalCost() float64 {
	if len(sp.shards) == 1 {
		return sp.shards[0].Cost()
	}
	loads := make([]float64, sp.base.NumMachines())
	for _, p := range sp.shards {
		for m := range loads {
			loads[m] += p.Load(topology.MachineID(m))
		}
	}
	max, _ := loadindex.MaxMean(loads)
	return max
}

// ShardedOptimizerOptions configure one sharded Algorithm-5 period.
type ShardedOptimizerOptions struct {
	// Opts are the global period knobs. ReplicationBudget is the global
	// β; MaxReplicationMoves and MaxSearchIterations are global caps,
	// split across shards (even split, remainder to low shards; the
	// budget split follows the rebalanced shares). Observers fire after
	// the concurrent phase, replayed in shard order, so they see a
	// deterministic sequence and need not be concurrency-safe.
	Opts OptimizerOptions
	// Workers bounds the concurrent per-shard periods; 0 means one per
	// available CPU (par.Workers).
	Workers int
	// Now, when set, timestamps each shard's period (nanoseconds) into
	// PerShardWallNanos for telemetry. The clock is threaded explicitly
	// so this package stays deterministic; nil leaves the wall times
	// zero.
	Now func() int64
}

// ShardedOptimizeResult aggregates one sharded period.
type ShardedOptimizeResult struct {
	// PerShard holds each shard's own period result, in shard order.
	PerShard []OptimizeResult
	// Replications and Evictions sum the per-shard counts.
	Replications int
	Evictions    int
	// Search sums the per-shard operation counts; its InitialCost and
	// FinalCost are the global λ (per-machine load aggregated across
	// shards) before and after the period.
	Search SearchResult
	// Imbalance is max/mean over the shards' local objectives λ_s after
	// the period — the cross-shard imbalance statistic.
	Imbalance float64
	// Shares is the extra-budget apportionment used this period;
	// NextShares is the rebalanced apportionment the next period will
	// use. Both are nil when dynamic replication is disabled.
	Shares     []int
	NextShares []int
	// PerShardWallNanos is each shard's period wall time when the caller
	// supplied a clock (see ShardedOptimizerOptions.Now); nil otherwise.
	PerShardWallNanos []int64
}

// OptimizeSharded runs one Algorithm-5 period on every shard
// concurrently, then the cross-shard rebalance pass. With one shard it
// delegates to Optimize directly — same code path, bit-identical
// results. The placement is modified in place.
func OptimizeSharded(sp *ShardedPlacement, opts ShardedOptimizerOptions) (ShardedOptimizeResult, error) {
	n := len(sp.shards)
	if n == 1 {
		var t0 int64
		if opts.Now != nil {
			t0 = opts.Now()
		}
		res, err := Optimize(sp.shards[0], opts.Opts)
		if err != nil {
			return ShardedOptimizeResult{}, err
		}
		out := ShardedOptimizeResult{
			PerShard:     []OptimizeResult{res},
			Replications: res.Replications,
			Evictions:    res.Evictions,
			Search:       res.Search,
			Imbalance:    1,
		}
		if opts.Now != nil {
			out.PerShardWallNanos = []int64{opts.Now() - t0}
		}
		return out, nil
	}

	var out ShardedOptimizeResult
	out.Search.InitialCost = sp.globalCost()

	perShard := make([]OptimizerOptions, n)
	for i := range perShard {
		perShard[i] = opts.Opts
		perShard[i].MaxSearchIterations = splitCap(opts.Opts.MaxSearchIterations, n, i)
		perShard[i].MaxReplicationMoves = splitCap(opts.Opts.MaxReplicationMoves, n, i)
	}
	if opts.Opts.ReplicationBudget > 0 {
		shares, err := sp.budgetShares(opts.Opts.ReplicationBudget)
		if err != nil {
			return out, err
		}
		out.Shares = shares
		for i := range perShard {
			perShard[i].ReplicationBudget = sp.shardMinBudget(i) + shares[i]
		}
	}

	// Observers must not fire from worker goroutines: buffer each
	// shard's events and replay them in shard order afterwards, so the
	// caller sees one deterministic sequence.
	logs := make([][]shardEvent, n)
	buffer := opts.Opts.OnReplicate != nil || opts.Opts.OnEvict != nil || opts.Opts.OnOp != nil
	if buffer {
		for i := range perShard {
			i := i
			perShard[i].OnReplicate = func(id BlockID, from, to topology.MachineID) {
				logs[i] = append(logs[i], shardEvent{kind: evReplicate, block: id, from: from, to: to})
			}
			perShard[i].OnEvict = func(id BlockID, m topology.MachineID) {
				logs[i] = append(logs[i], shardEvent{kind: evEvict, block: id, from: m})
			}
			perShard[i].OnOp = func(op Op) {
				logs[i] = append(logs[i], shardEvent{kind: evOp, op: op})
			}
		}
	}

	out.PerShard = make([]OptimizeResult, n)
	if opts.Now != nil {
		out.PerShardWallNanos = make([]int64, n)
	}
	errs := make([]error, n)
	par.ForEach(n, opts.Workers, func(i int) {
		var t0 int64
		if opts.Now != nil {
			t0 = opts.Now()
		}
		out.PerShard[i], errs[i] = Optimize(sp.shards[i], perShard[i])
		if opts.Now != nil {
			out.PerShardWallNanos[i] = opts.Now() - t0
		}
	})
	if err := par.FirstError(errs); err != nil {
		return out, err
	}
	if buffer {
		for i := range logs {
			for _, ev := range logs[i] {
				switch ev.kind {
				case evReplicate:
					opts.Opts.OnReplicate(ev.block, ev.from, ev.to)
				case evEvict:
					opts.Opts.OnEvict(ev.block, ev.from)
				case evOp:
					opts.Opts.OnOp(ev.op)
				}
			}
		}
	}

	costs := make([]float64, 0, n)
	for i, r := range out.PerShard {
		out.Replications += r.Replications
		out.Evictions += r.Evictions
		out.Search.Iterations += r.Search.Iterations
		out.Search.Movements += r.Search.Movements
		out.Search.Moves += r.Search.Moves
		out.Search.Swaps += r.Search.Swaps
		out.Search.RackMoves += r.Search.RackMoves
		out.Search.RackSwaps += r.Search.RackSwaps
		costs = append(costs, sp.shards[i].Cost())
	}
	out.Search.FinalCost = sp.globalCost()
	out.Imbalance = loadindex.Imbalance(costs)

	if opts.Opts.ReplicationBudget > 0 {
		out.NextShares = sp.rebalanceShares(opts.Opts.ReplicationBudget, out.PerShard)
		sp.shares = out.NextShares
	}
	return out, nil
}

// OptimizePartitioned runs one period over p partitioned into shards
// hash shards: it copies p's blocks and replicas into a ShardedPlacement,
// seeds its budget apportionment with shares (the previous period's
// NextShares; nil apportions by popularity mass), runs OptimizeSharded,
// and replays the resulting layout onto p — every removal first, so the
// capacity a migration frees is there for the additions that consumed it
// in the shards. The replay checks p's real capacities, which the shards'
// quotas overcommit: a layout that does not fit fails the period part
// way through, and p must then be discarded. Below 2 shards it is
// OptimizeSharded over p itself, which is Optimize.
func OptimizePartitioned(p *Placement, shards int, shares []int, opts ShardedOptimizerOptions) (ShardedOptimizeResult, error) {
	if shards < 2 {
		return OptimizeSharded(singleShard(p), opts)
	}
	specs := p.Specs()
	sp, err := NewShardedPlacement(p.Cluster(), shards, specs)
	if err != nil {
		return ShardedOptimizeResult{}, fmt.Errorf("core: partition: %w", err)
	}
	var holders []topology.MachineID
	for _, s := range specs {
		holders = p.AppendReplicas(s.ID, holders[:0])
		for _, m := range holders {
			if err := sp.AddReplica(s.ID, m); err != nil {
				return ShardedOptimizeResult{}, fmt.Errorf("core: partition: seed replica: %w", err)
			}
		}
	}
	sp.shares = shares
	res, err := OptimizeSharded(sp, opts)
	if err != nil {
		return res, err
	}

	type add struct {
		id BlockID
		m  topology.MachineID
	}
	var adds []add
	var before, after []topology.MachineID
	for _, s := range specs {
		id := s.ID
		before = p.AppendReplicas(id, before[:0])
		after = sp.For(id).AppendReplicas(id, after[:0]) // both ascending; set-diff by merge walk
		i, j := 0, 0
		for i < len(before) || j < len(after) {
			switch {
			case j == len(after) || (i < len(before) && before[i] < after[j]):
				if err := p.RemoveReplica(id, before[i]); err != nil {
					return res, fmt.Errorf("core: partition: replay removal: %w", err)
				}
				i++
			case i == len(before) || after[j] < before[i]:
				adds = append(adds, add{id, after[j]})
				j++
			default:
				i, j = i+1, j+1
			}
		}
	}
	for _, ad := range adds {
		if err := p.AddReplica(ad.id, ad.m); err != nil {
			return res, fmt.Errorf("core: partition: replay addition: %w", err)
		}
	}
	return res, nil
}

// Event kinds for the buffered observer replay.
const (
	evReplicate = iota
	evEvict
	evOp
)

type shardEvent struct {
	kind     int
	op       Op
	block    BlockID
	from, to topology.MachineID
}

// splitCap splits a global cap evenly across n shards, remainder to the
// low shard indexes. Zero (unbounded) stays unbounded for every shard.
func splitCap(total, n, i int) int {
	if total <= 0 {
		return 0
	}
	q, r := total/n, total%n
	if i < r {
		return q + 1
	}
	return q
}

// shardMinBudget is Σ MinReplicas over shard i's blocks — the floor any
// budget split must respect (Algorithm 3 rejects budgets below it).
func (sp *ShardedPlacement) shardMinBudget(i int) int {
	min := 0
	p := sp.shards[i]
	for _, id := range p.Blocks() {
		s, err := p.Spec(id)
		if err == nil {
			min += s.MinReplicas
		}
	}
	return min
}

// budgetShares apportions the extra budget (β minus the global minimum
// sum) across shards: the stored rebalanced shares if a previous period
// set them, otherwise proportional to each shard's popularity mass.
func (sp *ShardedPlacement) budgetShares(budget int) ([]int, error) {
	n := len(sp.shards)
	minSum := 0
	for i := range sp.shards {
		minSum += sp.shardMinBudget(i)
	}
	extra := budget - minSum
	if extra < 0 {
		return nil, fmt.Errorf("%w: need %d, budget %d", ErrBudgetTooSmall, minSum, budget)
	}
	if sp.shares != nil && len(sp.shares) == n {
		return apportion(extra, sharesToWeights(sp.shares)), nil
	}
	weights := make([]float64, n)
	for i, p := range sp.shards {
		mass := 0.0
		for _, id := range p.Blocks() {
			if s, err := p.Spec(id); err == nil {
				mass += s.Popularity
			}
		}
		weights[i] = mass
	}
	return apportion(extra, weights), nil
}

// rebalanceShares is the cross-shard rebalance pass: reapportion the
// extra budget proportionally to each shard's post-period objective ω_s
// (its maximum per-replica popularity). A shard still pinned at high
// per-replica popularity converts budget into the largest objective
// reduction, so budget migrates toward it next period — using only the
// per-shard summaries, never per-block state.
func (sp *ShardedPlacement) rebalanceShares(budget int, results []OptimizeResult) []int {
	n := len(sp.shards)
	minSum := 0
	for i := range sp.shards {
		minSum += sp.shardMinBudget(i)
	}
	extra := budget - minSum
	if extra < 0 {
		extra = 0
	}
	weights := make([]float64, n)
	for i, p := range sp.shards {
		weights[i] = p.MaxPerReplicaPopularity()
	}
	return apportion(extra, weights)
}

// sharesToWeights reuses integer shares as apportionment weights.
func sharesToWeights(shares []int) []float64 {
	w := make([]float64, len(shares))
	for i, s := range shares {
		w[i] = float64(s)
	}
	return w
}

// apportion splits total units proportionally to weights using the
// largest-remainder method, deterministically: floors first, then the
// remainder to the largest fractional parts (ties toward the lower
// shard index). Non-positive or zero-sum weights fall back to an even
// split.
func apportion(total int, weights []float64) []int {
	n := len(weights)
	out := make([]int, n)
	if total <= 0 {
		return out
	}
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum <= 0 {
		for i := range out {
			out[i] = splitCap(total, n, i)
		}
		return out
	}
	type frac struct {
		idx int
		rem float64
	}
	fracs := make([]frac, n)
	given := 0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		exact := float64(total) * w / sum
		out[i] = int(exact)
		given += out[i]
		fracs[i] = frac{idx: i, rem: exact - float64(out[i])}
	}
	// Insertion sort by descending remainder, ties toward low index:
	// n is the shard count, so quadratic is fine and allocation-free.
	before := func(a, b frac) bool {
		if a.rem > b.rem {
			return true
		}
		if a.rem < b.rem {
			return false
		}
		return a.idx < b.idx
	}
	for i := 1; i < n; i++ {
		f := fracs[i]
		j := i
		for j > 0 && before(f, fracs[j-1]) {
			fracs[j] = fracs[j-1]
			j--
		}
		fracs[j] = f
	}
	for i := 0; given < total; i++ {
		out[fracs[i%n].idx]++
		given++
	}
	return out
}
