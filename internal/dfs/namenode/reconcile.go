package namenode

import (
	"fmt"
	"slices"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/invariant"
	"aurora/internal/metrics"
	"aurora/internal/telemetry"
	"aurora/internal/topology"
)

// inflightTTL is how long a replicate command may be outstanding before
// it expires (and is re-issued if the replica is still missing).
const inflightTTL = 3 * time.Second

// reconcileLoop periodically converges actual replica locations toward
// the desired placement and detects dead datanodes.
func (nn *NameNode) reconcileLoop() {
	defer close(nn.done)
	ticker := time.NewTicker(nn.cfg.ReconcileInterval)
	defer ticker.Stop()
	var checkpoint <-chan time.Time
	if nn.cfg.FsImagePath != "" {
		ct := time.NewTicker(nn.cfg.CheckpointInterval)
		defer ct.Stop()
		checkpoint = ct.C
	}
	for {
		select {
		case <-nn.stop:
			return
		case <-ticker.C:
			nn.ReconcileOnce()
		case <-checkpoint:
			// Coalesced checkpointing: skip the save when no persisted
			// metadata changed since the last one, so steady-state block
			// reports cost no disk writes.
			if nn.Ready() && nn.Dirty() {
				//lint:ignore errcheck best effort: the Close-time save is authoritative
				_ = nn.SaveFsImage(nn.cfg.FsImagePath)
			}
		}
	}
}

// ReconcileOnce runs one reconciliation pass: one pass over the
// datanodes (checkNodesLocked), then the pending walk. It is exported so
// tests and the optimizer can force convergence checks without waiting
// for the ticker.
func (nn *NameNode) ReconcileOnce() {
	nn.mu.Lock()
	if !nn.ready {
		nn.mu.Unlock()
		return
	}
	nn.checkNodesLocked()
	now := nn.clock()
	// A write silent for inflightTTL is over: its writer stalled or is
	// gone, so what exists is repaired. A replicate command no report
	// completed in that time — its target died or its block was deleted —
	// expires, and the walk re-issues it if the replica is still missing.
	for b, allocated := range nn.writing {
		if now.Sub(allocated) >= inflightTTL {
			delete(nn.writing, b)
		}
	}
	for key, issued := range nn.inflight {
		if now.Sub(issued) >= inflightTTL {
			delete(nn.inflight, key)
		}
	}
	nn.syncPendingLocked()
	nn.walk = nn.walk[:0]
	for b := range nn.pending {
		nn.walk = append(nn.walk, core.BlockID(b))
	}
	nn.reconcileWalkLocked(now)
	loads, snap := nn.windowLoadsLocked()
	nn.mu.Unlock()
	// The pass is the load and hotspot gauges' only writer, so they
	// always mean window loads, never forecast ones. Publishing needs no
	// namenode state, so it happens outside the lock.
	telemetry.ExportMachineLoads(metrics.Default, loads)
	telemetry.ExportHotspots(metrics.Default, snap)
}

// windowLoadsLocked returns the usage monitor's current counts and the
// per-machine loads they imply: Σ count_i/k_i over each machine's
// replicas, the paper's load definition. It sums over the window's keys
// in ascending ID; a block outside the window would add exactly +0.0,
// so the loads are bit-identical to a walk of every block. Loads are
// computed on the side rather than via SetPopularity, so telemetry
// never perturbs the placement state the optimizer and reconcile
// decisions read.
func (nn *NameNode) windowLoadsLocked() ([]float64, map[core.BlockID]int64) {
	snap := nn.monitor.Peek(nn.clock().UnixNano())
	ids := make([]core.BlockID, 0, len(snap))
	for id := range snap {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	loads := make([]float64, nn.cluster.NumMachines())
	var holders []topology.MachineID
	for _, id := range ids {
		k := nn.placement.ReplicaCount(id)
		if k == 0 {
			continue
		}
		share := float64(snap[id]) / float64(k)
		holders = nn.placement.AppendReplicas(id, holders[:0])
		for _, m := range holders {
			if int(m) < len(loads) {
				loads[int(m)] += share
			}
		}
	}
	return loads, snap
}

// checkNodesLocked is the reconcile pass's one walk over the datanodes.
// A node silent for DeadTimeout is declared dead: its desired and held
// blocks enter the pending set, where the walk re-homes the first and
// forgets those of the second that the namespace lacks and no one else
// holds, and what it was confirmed to hold is forgotten — the
// fault-tolerance behaviour HDFS implements and the paper's reliability
// constraints assume. A draining node is decommissioned once nothing is
// desired on it and it holds nothing.
func (nn *NameNode) checkNodesLocked() {
	now := nn.clock()
	for _, node := range nn.nodes {
		if node.alive && now.Sub(node.lastSeen) >= nn.cfg.DeadTimeout {
			nn.unsettleNodeLocked(node)
			node.alive = false
			nn.markDirtyLocked()
			metrics.Default.Counter("dfs.namenode.dead_detected").Inc()
			for b := range node.holds {
				delete(nn.confirmed[b], node.id)
			}
			node.holds = nil
			// The wipe above invalidates the node's incremental set digest;
			// zero it to match the now-empty confirmation set and demand a
			// full baseline if the node ever comes back.
			node.digest = 0
			node.wantFull = true
			delete(nn.pendingCmds, node.id)
			delete(nn.queued, node.id)
		}
		if node.alive && node.draining && !node.decommissioned &&
			nn.placement.Used(topology.MachineID(node.id)) == 0 && len(node.holds) == 0 {
			node.decommissioned = true
		}
	}
}

// unsettleNodeLocked puts every block node is desired on or holds into
// the pending set: a death or a decommission changes what the per-block
// decision makes of them, through neither placement nor confirmLocked.
func (nn *NameNode) unsettleNodeLocked(node *nodeState) {
	for _, id := range nn.placement.BlocksOn(topology.MachineID(node.id)) {
		nn.pending[proto.BlockID(id)] = struct{}{}
	}
	for b := range node.holds {
		nn.pending[b] = struct{}{}
	}
}

// keepSize is healLocked's k for callers that re-home a block without
// resizing it: as many replicas as it has before the unhealthy ones are
// dropped, and at least its MinReplicas.
const keepSize = 0

// healLocked is the one way the namenode re-homes a block's desired
// replicas, whatever made it necessary — a machine died or is draining,
// the file's replication factor changed, or a placer, optimizer or
// external rebalancer that knows only the static topology put a replica
// somewhere unhealthy. The block ends up with k desired replicas on
// healthy machines over its MinRacks racks, as far as capacity allows
// (DESIGN.md §10.3):
//
//   - replicas on unhealthy machines — dead or draining — are dropped;
//   - replicas are added on healthy machines (alive, not draining, with
//     room) while the block is short of k replicas or of MinRacks racks —
//     when only racks are short, only in a rack it is not in yet;
//   - while it has more than k, the most-loaded holder whose removal
//     keeps the spread is dropped.
//
// A copy a dropped replica leaves on a draining machine is then surplus
// like any other, and the walk deletes it once the new set is safe
// (reconcileBlockLocked). A block the steps would leave as it is returns
// before anything is written, so a drain's waiting blocks cost a visit
// no placement write.
//
// Which machine gains or loses a replica is core's decision; this
// function only says which machines are healthy. It reports whether the
// desired set changed.
func (nn *NameNode) healLocked(id core.BlockID, k int) bool {
	p := nn.placement
	spec, err := p.Spec(id)
	if err != nil {
		return false
	}
	var holderBuf [8]topology.MachineID
	var rackBuf [8]int
	holders := p.AppendReplicas(id, holderBuf[:0])
	racks := rackBuf[:0]
	healthy := 0
	for _, m := range holders {
		if node := nn.nodes[m]; node.alive && !node.draining {
			healthy++
			if !slices.Contains(racks, node.rack) {
				racks = append(racks, node.rack)
			}
		}
	}
	if k == keepSize {
		k = max(len(holders), spec.MinReplicas)
	}
	if healthy == len(holders) && healthy == k && len(racks) >= spec.MinRacks {
		return false
	}
	changed := false
	for _, m := range holders {
		if node := nn.nodes[m]; !node.alive || node.draining {
			//lint:ignore errcheck the replica was just enumerated; removal cannot fail
			_ = p.RemoveReplica(id, m)
			changed = true
		}
	}
	for {
		short := p.ReplicaCount(id) < k
		if !short && p.RackSpread(id) >= spec.MinRacks {
			break
		}
		m := p.ReplicaDestination(id, func(m topology.MachineID) bool {
			node := nn.nodes[m]
			return node.alive && !node.draining && p.FreeCapacity(m) > 0 &&
				(short || !p.InRack(id, nn.cluster.MustMachine(m).Rack))
		})
		if m == topology.NoMachine || p.AddReplica(id, m) != nil {
			break // no healthy machine has room; the next reconcile pass retries
		}
		changed = true
	}
	for p.ReplicaCount(id) > k {
		drop := topology.NoMachine
		for _, m := range p.Replicas(id) {
			if p.RemovalKeepsSpread(id, m) && (drop == topology.NoMachine || p.Load(m) > p.Load(drop)) {
				drop = m
			}
		}
		if drop == topology.NoMachine {
			break
		}
		//lint:ignore errcheck the replica was just enumerated; removal cannot fail
		_ = p.RemoveReplica(id, drop)
		changed = true
	}
	if changed {
		nn.markDirtyLocked()
	}
	return changed
}

// syncPendingLocked moves the blocks the placement recorded as changed
// into the pending set and, while a period computes, into its touched
// set. It leaves them in nn.walk.
func (nn *NameNode) syncPendingLocked() {
	nn.walk = nn.placement.DrainChanges(nn.walk[:0])
	for _, id := range nn.walk {
		nn.pending[proto.BlockID(id)] = struct{}{}
		if nn.touched != nil {
			nn.touched[proto.BlockID(id)] = struct{}{}
		}
	}
}

// reconcileWalkLocked applies reconcileBlockLocked to the blocks in
// nn.walk, once each, in ascending ID — the order a walk of every block
// would visit them in, so the command queues come out the same — and
// drops each one it finds settled from the pending set. The reconcile
// pass walks the whole pending set; a period's install walks what it
// changed.
func (nn *NameNode) reconcileWalkLocked(now time.Time) {
	slices.Sort(nn.walk)
	nn.walk = slices.Compact(nn.walk)
	for _, id := range nn.walk {
		if nn.reconcileBlockLocked(id, now) {
			delete(nn.pending, proto.BlockID(id))
		}
	}
	if invariant.Enabled {
		nn.checkSettledLocked(now)
	}
}

// reconcileBlockLocked is the reconcile decision for one block, and the
// only one. A held block the namespace has no spec for — its file was
// deleted, or a restart from an older image never heard of it — has a
// delete sent to each live confirmed holder, and its confirmed entry is
// dropped once no holder is left. A block being written is left to its
// pipeline. Any other block is healed (healLocked), each desired replica
// missing on a live node is copied from a confirmed live holder, and
// every confirmed copy outside the desired set is deleted once the set
// is safe without it — feasible, with at least MinReplicas of its
// replicas confirmed: make-before-break, the one rule for every surplus
// copy, whether an eviction, a migration's source or a drained
// machine's. It reports whether the block is settled: not being
// written, feasible and confirmed on exactly its desired holders (which
// the heal left alive and not draining) — or unknown and held by no
// one. A settled block wanted nothing from this call and
// will want nothing until an event puts it in the pending set.
func (nn *NameNode) reconcileBlockLocked(id core.BlockID, now time.Time) (settled bool) {
	b := proto.BlockID(id)
	p := nn.placement
	holders := nn.confirmed[b]
	spec, err := p.Spec(id)
	if err != nil {
		if len(holders) == 0 {
			delete(nn.confirmed, b)
			return true
		}
		for n := range holders {
			if nn.nodes[n].alive {
				nn.enqueueLocked(n, proto.Command{Kind: proto.CmdDelete, Block: b})
			}
		}
		return false
	}
	if _, ok := nn.writing[b]; ok {
		return false // initial pipeline write in flight
	}
	nn.healLocked(id, keepSize)
	var desiredBuf [8]topology.MachineID
	desired := p.AppendReplicas(id, desiredBuf[:0])
	confirmedDesired := 0
	for _, m := range desired {
		n := proto.NodeID(m)
		if holders[n] {
			confirmedDesired++
			continue
		}
		// Missing replica: copy it from a confirmed live holder.
		key := inflightKey{block: b, node: n}
		if _, ok := nn.inflight[key]; ok {
			continue
		}
		src, ok := nn.pickSourceLocked(b, n)
		if !ok {
			continue // nothing to copy from yet
		}
		nn.inflight[key] = now
		nn.enqueueLocked(src, proto.Command{
			Kind:   proto.CmdReplicate,
			Block:  b,
			Target: nn.nodes[n].addr,
		})
	}
	feasible := p.Feasible(id)
	if feasible && confirmedDesired >= spec.MinReplicas {
		for n := range holders {
			if !p.HasReplica(id, topology.MachineID(n)) && nn.nodes[n].alive {
				nn.enqueueLocked(n, proto.Command{Kind: proto.CmdDelete, Block: b})
			}
		}
	}
	return feasible && confirmedDesired == len(desired) && len(holders) == len(desired)
}

// checkSettledLocked is the pending set's oracle, run after every
// reconcile walk in invariantdebug builds: it applies the per-block
// decision to every block outside the set and panics on one that is not
// settled — a block that wanted a command or a heal that no walk
// visited, because some event failed to add it. Confirmed blocks count
// too: one the namespace lacks is settled only once its entry is
// dropped.
func (nn *NameNode) checkSettledLocked(now time.Time) {
	check := func(id core.BlockID) {
		if _, ok := nn.pending[proto.BlockID(id)]; !ok && !nn.reconcileBlockLocked(id, now) {
			panic(fmt.Sprintf("namenode: block %d is outside the reconcile pending set but not settled", id))
		}
	}
	for _, id := range nn.placement.Blocks() {
		check(id)
	}
	for b := range nn.confirmed {
		check(core.BlockID(b))
	}
}

// pickSourceLocked chooses a live confirmed holder of b to copy from,
// preferring the one with the least modelled load (placement.Load, ties
// to the lower ID), and never the target itself.
func (nn *NameNode) pickSourceLocked(b proto.BlockID, target proto.NodeID) (proto.NodeID, bool) {
	holders := nn.confirmed[b]
	best := proto.NodeID(-1)
	bestLoad := 0.0
	for n := range holders {
		if n == target || !nn.nodes[n].alive {
			continue
		}
		load := nn.placement.Load(topology.MachineID(n))
		if best == -1 || load < bestLoad || (load == bestLoad && n < best) {
			best, bestLoad = n, load
		}
	}
	return best, best != -1
}

// enqueueLocked appends a command for delivery on the node's next
// heartbeat unless an identical one is already queued.
func (nn *NameNode) enqueueLocked(n proto.NodeID, cmd proto.Command) {
	set := nn.queued[n]
	if _, dup := set[cmd]; dup {
		return
	}
	if set == nil {
		set = make(map[proto.Command]struct{})
		nn.queued[n] = set
	}
	set[cmd] = struct{}{}
	nn.pendingCmds[n] = append(nn.pendingCmds[n], cmd)
}

// MovementStats reports completed replica-transfer durations and the
// number of replicate/delete commands handed to datanodes so far. The
// returned slice is a copy.
func (nn *NameNode) MovementStats() (durations []time.Duration, replicates, deletes int64) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return slices.Clone(nn.moveDurations), nn.commandsIssued[proto.CmdReplicate], nn.commandsIssued[proto.CmdDelete]
}

// WithPlacement runs an external rebalancer as one period: fn replaces
// the optimizer in OptimizeNow's compute step (runPeriod). It is the
// integration point for placement policies other than Aurora's (the
// Scarlett baseline in the testbed experiment uses it), so every policy
// runs under the same forecast, snapshot and install. fn runs once, on a
// copy of the whole desired placement, with no namenode lock held,
// whatever the shard count. fn sees the static topology; replicas it
// leaves on dead or draining machines are re-homed by the install. If fn
// fails, or its plan is dropped (reported as ErrPlanDropped), nothing
// changes.
func (nn *NameNode) WithPlacement(fn func(*core.Placement) error) error {
	installed, err := nn.runPeriod(func(plan *core.Placement, _ []int) ([]int, error) {
		return nil, fn(plan)
	})
	if err == nil && !installed {
		return ErrPlanDropped
	}
	return err
}

// OptimizeNow runs one Aurora optimization period (Algorithm 5) against
// the live metadata: runPeriod with core.OptimizePartitioned over
// cfg.Shards hash shards as the compute step.
//
// A period that fails changes nothing — among the failures, a
// partitioned plan that does not fit the machines' real capacities.
// Neither does one whose plan a rebased replica no longer fits: that
// plan is dropped whole, counted as dfs.namenode.plan_dropped, and the
// period reports an empty result. The returned report aggregates the
// shards (with one shard it is exactly the unsharded period's report).
func (nn *NameNode) OptimizeNow(opts core.OptimizerOptions) (core.OptimizeResult, error) {
	var res core.ShardedOptimizeResult
	var wall time.Duration
	installed, err := nn.runPeriod(func(plan *core.Placement, shares []int) ([]int, error) {
		start := time.Now()
		var err error
		res, err = core.OptimizePartitioned(plan, nn.cfg.Shards, shares, core.ShardedOptimizerOptions{
			Opts: opts,
			// Per-shard wall timing uses the namenode's injected clock,
			// so deterministic harnesses replay with their own time
			// source. It runs off the lock: a test clock must not move
			// mid-compute.
			Now: func() int64 { return nn.clock().UnixNano() },
		})
		wall = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("namenode: optimize: %w", err)
		}
		return res.NextShares, nil
	})
	agg := core.OptimizeResult{
		Replications: res.Replications,
		Evictions:    res.Evictions,
		Search:       res.Search,
	}
	if err != nil {
		return agg, err
	}
	if !installed {
		return core.OptimizeResult{}, nil
	}
	telemetry.ExportShardedOptimizePeriod(metrics.Default, res, wall)
	return agg, nil
}

// runPeriod is the one reconfiguration period (DESIGN.md §10.6), in
// three steps, holding the namenode lock only for the first and the
// last:
//
//   - snapshot: drain the placement's recorded changes, take the usage
//     monitor's window and clone the desired placement;
//   - compute, with no namenode lock held: write the staged forecast
//     into the clone, then run compute over it — the optimizer or an
//     external rebalancer — with the cross-shard budget shares the last
//     installed period left (nil before the first);
//   - install: rebase onto the plan every block whose desired state
//     changed since the snapshot — the live change wins for that block —
//     make the plan the desired placement, and run the reconcile walk
//     over what changed: it re-homes what the plan left on dead or
//     draining machines and queues the copies and deletions the
//     datanodes' next reports carry. Only then does
//     the forecaster commit the period's forecast, and the shares
//     compute returned, unless nil, become the next period's.
//
// It reports whether the plan was installed. A period whose forecast or
// compute fails, or whose plan a rebased replica no longer fits,
// changes nothing.
func (nn *NameNode) runPeriod(compute func(plan *core.Placement, shares []int) ([]int, error)) (bool, error) {
	nn.periodMu.Lock()
	defer nn.periodMu.Unlock()
	plan, window, err := nn.snapshotPeriod()
	if err != nil {
		return false, err
	}
	// In debug builds, a feasible placement must stay feasible through
	// the compute: assert the paper invariants on the plan.
	assertAfter := invariant.Enabled && plan.CheckFeasible() == nil
	var shares []int
	fc, err := nn.forecast.Apply(plan, window)
	if err != nil {
		err = fmt.Errorf("namenode: forecast: %w", err)
	} else {
		shares, err = compute(plan, nn.shares)
	}
	if err == nil && assertAfter {
		if verr := invariant.CheckPlacement(plan); verr != nil {
			err = fmt.Errorf("namenode: post-compute: %w", verr)
		}
	}
	if err != nil {
		nn.endPeriod()
		return false, err
	}
	if nn.computed != nil {
		nn.computed(plan)
	}
	if !nn.installPlan(plan) {
		return false, nil
	}
	nn.forecast.Commit(fc)
	if fc.Score.Scored {
		telemetry.ExportPredictionError(metrics.Default, fc.Score.WAE, fc.Score.TopK,
			metrics.L("predictor", nn.cfg.Predictor))
	}
	if shares != nil {
		nn.shares = shares
	}
	return true, nil
}

// snapshotPeriod is a period's snapshot step. Under nn.mu it drains the
// placement's recorded changes, so the touched set it then starts holds
// only what changes after the clone; takes the usage monitor's window;
// and clones the desired placement, with change recording on, for the
// period to plan on.
func (nn *NameNode) snapshotPeriod() (*core.Placement, map[core.BlockID]int64, error) {
	nn.mu.Lock()
	if !nn.ready {
		nn.mu.Unlock()
		return nil, nil, ErrNotReady
	}
	held := time.Now()
	nn.syncPendingLocked()
	nn.touched = make(map[proto.BlockID]struct{})
	window := nn.monitor.Snapshot(nn.clock().UnixNano())
	plan := nn.placement.Clone()
	plan.TrackChanges()
	hold := time.Since(held)
	nn.mu.Unlock()
	observePeriodHold("snapshot", hold)
	return plan, window, nil
}

// installPlan is a period's install step, under nn.mu. It rebases onto
// plan, in ascending ID, every block the touched set names. If a rebased
// replica does not fit, it drops the plan and reports false, and the
// desired placement is as the period found it plus the live changes.
// Otherwise plan becomes the desired placement, and the reconcile walk
// runs over every block the plan or the rebase changed: it re-homes what
// the plan, working over the static topology, put on dead or draining
// machines, and queues the period's copies and deletes before the lock
// is released. The install's per-block work is in the blocks changed.
func (nn *NameNode) installPlan(plan *core.Placement) bool {
	nn.mu.Lock()
	held := time.Now()
	nn.syncPendingLocked()
	nn.walk = nn.walk[:0]
	for b := range nn.touched {
		nn.walk = append(nn.walk, core.BlockID(b))
	}
	nn.touched = nil
	slices.Sort(nn.walk)
	metrics.Default.Counter("dfs.namenode.plan_rebased_blocks").Add(int64(len(nn.walk)))
	installed := plan.Rebase(nn.placement, nn.walk) == nil
	if installed {
		nn.placement = plan
		nn.syncPendingLocked()
		nn.reconcileWalkLocked(nn.clock())
		nn.markDirtyLocked()
	} else {
		metrics.Default.Counter("dfs.namenode.plan_dropped").Inc()
	}
	hold := time.Since(held)
	nn.mu.Unlock()
	observePeriodHold("install", hold)
	return installed
}

// endPeriod stops collecting the touched set of a period that ends
// without an install.
func (nn *NameNode) endPeriod() {
	nn.mu.Lock()
	nn.touched = nil
	nn.mu.Unlock()
}

// observePeriodHold records how long one step of a period held nn.mu,
// in seconds.
func observePeriodHold(phase string, hold time.Duration) {
	metrics.Default.Histogram("dfs.namenode.period_lock_hold", metrics.L("phase", phase)).Observe(hold.Seconds())
}

// PopularitySnapshot returns the usage monitor's current per-block
// counts. It is a read-only observer: calling it any number of times
// never advances, prunes or otherwise changes monitor state.
func (nn *NameNode) PopularitySnapshot() map[core.BlockID]int64 {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return nn.monitor.Peek(nn.clock().UnixNano())
}

// PlacementClone returns a deep copy of the desired placement for
// inspection (reporting, what-if tooling).
func (nn *NameNode) PlacementClone() (*core.Placement, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return nil, ErrNotReady
	}
	return nn.placement.Clone(), nil
}

// Converged reports whether every desired replica is confirmed and no
// surplus replicas remain — the steady state after reconciliation.
// Only the pending set needs a look: every block outside it is settled.
func (nn *NameNode) Converged() bool {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return false
	}
	nn.syncPendingLocked()
	converged := true
	for b := range nn.pending {
		if !nn.confirmedAsDesiredLocked(core.BlockID(b)) {
			converged = false
			break
		}
	}
	if invariant.Enabled {
		full := true
		for _, id := range nn.placement.Blocks() {
			full = full && nn.confirmedAsDesiredLocked(id)
		}
		for b := range nn.confirmed {
			full = full && nn.confirmedAsDesiredLocked(core.BlockID(b))
		}
		if full != converged {
			panic(fmt.Sprintf("namenode: Converged over the pending set says %v, over every block %v", converged, full))
		}
	}
	return converged
}

// confirmedAsDesiredLocked reports whether block id is confirmed on
// exactly its desired holders; a block the namespace lacks has none, so
// it is as desired once no copy of it is held.
func (nn *NameNode) confirmedAsDesiredLocked(id core.BlockID) bool {
	holders := nn.confirmed[proto.BlockID(id)]
	desired := nn.placement.Replicas(id)
	if len(holders) != len(desired) {
		return false
	}
	for _, m := range desired {
		if !holders[proto.NodeID(m)] {
			return false
		}
	}
	return true
}

// WaitConverged polls Converged until it holds or the timeout elapses.
func (nn *NameNode) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if nn.Converged() {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("namenode: not converged after %v", timeout)
}

// Health builds the fsck report: desired-versus-confirmed replica
// accounting per block plus the reconcile backlog. Healthy means every
// block meets its fault-tolerance requirements with confirmed replicas
// and in its desired set, and nothing is pending.
func (nn *NameNode) Health() proto.HealthReport {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var h proto.HealthReport
	h.Files = len(nn.files)
	if nn.placement == nil {
		return h
	}
	for _, id := range nn.placement.Blocks() {
		h.Blocks++
		desired := nn.placement.ReplicaCount(id)
		h.DesiredReplicas += desired
		holders := nn.confirmed[proto.BlockID(id)]
		spec, err := nn.placement.Spec(id)
		if err != nil {
			continue
		}
		confirmedLive := 0
		racks := make(map[int]bool)
		for n := range holders {
			if node := nn.nodes[n]; node.alive {
				confirmedLive++
				racks[node.rack] = true
			}
		}
		h.ConfirmedReplicas += confirmedLive
		// The desired set counts too: surplus confirmed copies can cover
		// for a desired set that is still short, and would be deleted as
		// soon as it converged.
		if confirmedLive < spec.MinReplicas || desired < spec.MinReplicas {
			h.UnderReplicatedBlocks++
		}
		if len(racks) < spec.MinRacks || nn.placement.RackSpread(id) < spec.MinRacks {
			h.UnderSpreadBlocks++
		}
	}
	for _, cmds := range nn.pendingCmds {
		h.PendingCommands += len(cmds)
	}
	h.InflightTransfers = len(nn.inflight)
	for _, n := range nn.nodes {
		if !n.alive {
			h.DeadNodes++
		}
		if n.draining && !n.decommissioned {
			h.DrainingNodes++
		}
	}
	for b, holders := range nn.confirmed {
		if _, err := nn.placement.Spec(core.BlockID(b)); err != nil && len(holders) > 0 {
			h.TombstonedBlocks++
		}
	}
	h.Healthy = h.UnderReplicatedBlocks == 0 && h.UnderSpreadBlocks == 0 &&
		h.PendingCommands == 0 && h.TombstonedBlocks == 0 && h.DeadNodes == 0 &&
		h.DrainingNodes == 0
	return h
}
