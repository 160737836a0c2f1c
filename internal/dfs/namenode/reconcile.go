package namenode

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/invariant"
	"aurora/internal/loadindex"
	"aurora/internal/metrics"
	"aurora/internal/popularity"
	"aurora/internal/telemetry"
	"aurora/internal/topology"
)

// inflightTTL is how long a replicate command may be outstanding before
// it is re-issued.
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

// ReconcileOnce runs one reconciliation pass. It is exported so tests
// and the optimizer can force convergence checks without waiting for the
// ticker.
func (nn *NameNode) ReconcileOnce() {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return
	}
	nn.detectDeadLocked()
	nn.drainLocked()
	nn.reapTombstonesLocked()
	nn.driveConvergenceLocked()
	nn.exportLoadTelemetryLocked()
}

// exportLoadTelemetryLocked publishes per-machine load and hotspot
// gauges from the usage monitor's current counts. Loads are computed on
// the side (Σ popularity_i/k_i over each machine's replicas, the
// paper's load definition) rather than via SetPopularity, so refreshing
// telemetry never perturbs the placement state the optimizer and
// reconcile decisions read.
func (nn *NameNode) exportLoadTelemetryLocked() {
	snap := nn.peekSnapshotLocked()
	loads := make([]float64, nn.cluster.NumMachines())
	for _, id := range nn.placement.Blocks() {
		k := nn.placement.ReplicaCount(id)
		if k == 0 {
			continue
		}
		share := float64(snap[id]) / float64(k)
		for _, m := range nn.placement.Replicas(id) {
			if int(m) < len(loads) {
				loads[int(m)] += share
			}
		}
	}
	telemetry.ExportMachineLoads(metrics.Default, loads)
	telemetry.ExportHotspots(metrics.Default, snap)
}

// detectDeadLocked marks silent datanodes dead and removes their
// replicas from the desired placement so re-replication kicks in — the
// fault-tolerance behaviour HDFS implements and the paper's reliability
// constraints assume.
func (nn *NameNode) detectDeadLocked() {
	now := nn.clock()
	for _, node := range nn.nodes {
		if !node.alive || now.Sub(node.lastSeen) < nn.cfg.DeadTimeout {
			continue
		}
		node.alive = false
		nn.markDirtyLocked()
		metrics.Default.Counter("dfs.namenode.dead_detected").Inc()
		m := topology.MachineID(node.id)
		for _, id := range nn.placement.BlocksOn(m) {
			//lint:ignore errcheck the replica was just enumerated from BlocksOn; removal cannot fail
			_ = nn.placement.RemoveReplica(id, m)
		}
		for _, holders := range nn.confirmed {
			delete(holders, node.id)
		}
		// The wipe above invalidates the node's incremental set digest;
		// zero it to match the now-empty confirmation set and demand a
		// full baseline if the node ever comes back.
		node.digest = 0
		node.wantFull = true
		delete(nn.pendingCmds, node.id)
		// Under-replicated blocks get new desired homes immediately —
		// on live machines only (the dead machine is still part of the
		// static topology and must be excluded explicitly).
		for _, id := range nn.placement.Blocks() {
			spec, err := nn.placement.Spec(id)
			if err != nil {
				continue
			}
			if nn.placement.ReplicaCount(id) < spec.MinReplicas {
				nn.ensureAliveDesiredLocked(id, spec.MinReplicas)
			}
		}
	}
}

// ensureAliveDesiredLocked strips desired replicas off dead machines and
// tops the desired count back up to k using live machines, preferring
// racks that restore the block's spread, then the least-loaded machine.
func (nn *NameNode) ensureAliveDesiredLocked(id core.BlockID, k int) {
	for _, m := range nn.placement.Replicas(id) {
		if !nn.nodes[m].alive {
			//lint:ignore errcheck the replica was just enumerated; removal cannot fail
			_ = nn.placement.RemoveReplica(id, m)
		}
	}
	// Draining machines keep their existing replicas (the drain path
	// migrates them safely) but never receive new desired replicas;
	// chooseAliveTargetLocked enforces that below.
	for nn.placement.ReplicaCount(id) < k {
		m, ok := nn.chooseAliveTargetLocked(id)
		if !ok {
			return // no live machine can host; retried next reconcile
		}
		if err := nn.placement.AddReplica(id, m); err != nil {
			return
		}
		nn.markDirtyLocked()
	}
}

// chooseAliveTargetLocked picks a live machine with capacity that does
// not hold block id, preferring new racks while the spread requirement
// is unmet, then lowest load (ties by fewest blocks, then ID).
func (nn *NameNode) chooseAliveTargetLocked(id core.BlockID) (topology.MachineID, bool) {
	spec, err := nn.placement.Spec(id)
	if err != nil {
		return topology.NoMachine, false
	}
	heldRacks := make(map[topology.RackID]bool)
	for _, m := range nn.placement.Replicas(id) {
		if r, err := nn.cluster.RackOf(m); err == nil {
			heldRacks[r] = true
		}
	}
	needSpread := nn.placement.RackSpread(id) < spec.MinRacks
	pick := func(newRackOnly bool) topology.MachineID {
		best := topology.NoMachine
		bestLoad := 0.0
		for _, node := range nn.nodes {
			if !node.alive || node.draining {
				continue
			}
			m := topology.MachineID(node.id)
			if nn.placement.HasReplica(id, m) || !nn.placement.CanHost(id, m) {
				continue
			}
			if newRackOnly {
				if r, err := nn.cluster.RackOf(m); err != nil || heldRacks[r] {
					continue
				}
			}
			load := nn.placement.Load(m)
			if best == topology.NoMachine || load < bestLoad ||
				(load == bestLoad && nn.placement.Used(m) < nn.placement.Used(best)) {
				best, bestLoad = m, load
			}
		}
		return best
	}
	if needSpread {
		if m := pick(true); m != topology.NoMachine {
			return m, true
		}
	}
	if m := pick(false); m != topology.NoMachine {
		return m, true
	}
	return topology.NoMachine, false
}

// reapTombstonesLocked deletes replicas of removed blocks.
func (nn *NameNode) reapTombstonesLocked() {
	for b := range nn.tombstones {
		holders := nn.confirmed[b]
		if len(holders) == 0 {
			delete(nn.confirmed, b)
			delete(nn.tombstones, b)
			continue
		}
		for n := range holders {
			if nn.nodes[n].alive {
				nn.enqueueLocked(n, proto.Command{Kind: proto.CmdDelete, Block: b})
			}
		}
	}
}

// driveConvergenceLocked issues replicate commands for desired replicas
// that do not exist yet, and delete commands for confirmed replicas that
// are no longer desired (migration sources, evictions) once the block is
// safely replicated.
func (nn *NameNode) driveConvergenceLocked() {
	now := nn.clock()
	for b, allocated := range nn.writing {
		if now.Sub(allocated) >= inflightTTL {
			delete(nn.writing, b) // writer stalled or gone: repair what exists
		}
	}
	for _, id := range nn.placement.Blocks() {
		b := proto.BlockID(id)
		if _, ok := nn.writing[b]; ok {
			continue // initial pipeline write in flight
		}
		desired := nn.placement.Replicas(id)
		holders := nn.confirmed[b]
		desiredSet := make(map[proto.NodeID]bool, len(desired))
		confirmedDesired := 0
		for _, m := range desired {
			n := proto.NodeID(m)
			desiredSet[n] = true
			if holders[n] {
				confirmedDesired++
			}
		}
		// Missing replicas: copy from a confirmed live holder.
		for _, m := range desired {
			n := proto.NodeID(m)
			if holders[n] || !nn.nodes[n].alive {
				continue
			}
			key := inflightKey{block: b, node: n}
			if issued, ok := nn.inflight[key]; ok && now.Sub(issued) < inflightTTL {
				continue
			}
			src, ok := nn.pickSourceLocked(b, n)
			if !ok {
				continue // nothing to copy from yet (initial write in flight)
			}
			nn.inflight[key] = now
			nn.enqueueLocked(src, proto.Command{
				Kind:   proto.CmdReplicate,
				Block:  b,
				Target: nn.nodes[n].addr,
			})
		}
		// Surplus replicas: drop them only when enough desired replicas
		// are confirmed, so a migration never reduces availability.
		spec, err := nn.placement.Spec(id)
		if err != nil {
			continue
		}
		if confirmedDesired >= spec.MinReplicas || confirmedDesired >= len(desired) {
			for n := range holders {
				if !desiredSet[n] && nn.nodes[n].alive {
					nn.enqueueLocked(n, proto.Command{Kind: proto.CmdDelete, Block: b})
				}
			}
		}
	}
}

// pickSourceLocked chooses a live confirmed holder of b to copy from,
// preferring the one with the fewest desired blocks (least busy), and
// never the target itself.
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
// heartbeat, de-duplicating identical queued commands.
func (nn *NameNode) enqueueLocked(n proto.NodeID, cmd proto.Command) {
	for _, existing := range nn.pendingCmds[n] {
		if existing == cmd {
			return
		}
	}
	nn.commandsIssued[cmd.Kind]++
	nn.pendingCmds[n] = append(nn.pendingCmds[n], cmd)
}

// MovementStats reports completed replica-transfer durations and the
// number of replicate/delete commands issued so far. The returned slice
// is a copy.
func (nn *NameNode) MovementStats() (durations []time.Duration, replicates, deletes int64) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	durations = make([]time.Duration, len(nn.moveDurations))
	copy(durations, nn.moveDurations)
	return durations, nn.commandsIssued[proto.CmdReplicate], nn.commandsIssued[proto.CmdDelete]
}

// WithPlacement runs fn against the live desired placement under the
// namenode lock, optionally refreshing block popularities from the usage
// monitor first. It is the integration point for external rebalancers
// (the Scarlett baseline in the testbed experiment uses it; Aurora's own
// optimizer uses OptimizeNow). On a sharded namenode fn runs once per
// shard, in shard order — each invocation sees one partition of the
// block map; with one shard the behaviour is exactly the unsharded one.
func (nn *NameNode) WithPlacement(refreshPopularity bool, fn func(*core.Placement) error) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return ErrNotReady
	}
	if refreshPopularity {
		if err := nn.refreshPopularityLocked(); err != nil {
			return err
		}
	}
	for i := 0; i < nn.placement.NumShards(); i++ {
		if err := fn(nn.placement.Shard(i)); err != nil {
			return err
		}
	}
	nn.markDirtyLocked()
	return nil
}

// refreshPopularityLocked feeds each shard's usage-monitor window into
// its placement's block popularities — raw counts when reactive, the
// per-shard predictor's forecast when cfg.Predictor is set. This is the
// one consuming path allowed to call Monitor.Snapshot (and so to prune
// expired keys); with a predictor it also scores the shard's previous
// forecast against the realized window and exports the error series.
func (nn *NameNode) refreshPopularityLocked() error {
	now := nn.clock().UnixNano()
	for i, mon := range nn.monitors {
		snap := mon.Snapshot(now)
		vals := make(map[core.BlockID]float64, len(snap))
		for id, v := range snap {
			vals[id] = float64(v)
		}
		if nn.preds != nil {
			if prev := nn.lastPred[i]; prev != nil {
				telemetry.ExportPredictionError(metrics.Default,
					popularity.WeightedAbsError(prev, snap),
					popularity.TopKOverlap(prev, snap, popularity.DefaultTopK),
					metrics.L("predictor", nn.cfg.Predictor),
					metrics.L("shard", strconv.Itoa(i)))
			}
			nn.preds[i].Observe(snap)
			vals = nn.preds[i].Predict()
			nn.lastPred[i] = vals
		}
		p := nn.placement.Shard(i)
		for _, id := range p.Blocks() {
			if err := p.SetPopularity(id, vals[id]); err != nil {
				return err
			}
		}
	}
	return nil
}

// OptimizeNow runs one Aurora optimization period (Algorithm 5) against
// the live metadata: block popularities are refreshed from the usage
// monitors, each shard's period runs concurrently over the bounded
// worker pool, a cross-shard rebalance pass migrates replication budget
// between shards, and the reconcile loop carries the resulting copies
// and deletions to the datanodes. The returned report aggregates the
// shards (with one shard it is exactly the unsharded period's report).
func (nn *NameNode) OptimizeNow(opts core.OptimizerOptions) (core.OptimizeResult, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return core.OptimizeResult{}, ErrNotReady
	}
	if err := nn.refreshPopularityLocked(); err != nil {
		return core.OptimizeResult{}, err
	}
	snap := nn.peekSnapshotLocked()
	// In debug builds, a feasible placement must stay feasible through
	// the optimizer: assert the paper invariants after the run.
	assertAfter := invariant.Enabled && nn.placement.CheckFeasible() == nil
	start := time.Now()
	res, err := core.OptimizeSharded(nn.placement, core.ShardedOptimizerOptions{
		Opts: opts,
		// Per-shard wall timing uses the namenode's injected clock, so
		// deterministic harnesses replay with their own time source.
		Now: func() int64 { return nn.clock().UnixNano() },
	})
	agg := core.OptimizeResult{
		Replications: res.Replications,
		Evictions:    res.Evictions,
		Search:       res.Search,
	}
	if err != nil {
		return agg, fmt.Errorf("namenode: optimize: %w", err)
	}
	telemetry.ExportShardedOptimizePeriod(metrics.Default, res, time.Since(start))
	telemetry.ExportMachineLoads(metrics.Default, nn.placement.AppendLoads(nil))
	telemetry.ExportHotspots(metrics.Default, snap)
	nn.repairDeadDesiredLocked()
	nn.markDirtyLocked()
	if assertAfter {
		for i := 0; i < nn.placement.NumShards(); i++ {
			if verr := invariant.CheckPlacement(nn.placement.Shard(i)); verr != nil {
				return agg, fmt.Errorf("namenode: post-optimize shard %d: %w", i, verr)
			}
		}
	}
	return agg, nil
}

// repairDeadDesiredLocked strips desired replicas sitting on dead
// machines and re-homes them on live ones. The optimizer works over the
// static topology, where a crashed machine looks attractively empty —
// so an optimization period during a fault window runs normally and
// this pass repairs its output instead of the period aborting. Runs
// after core.Optimize and before the debug invariant assert.
func (nn *NameNode) repairDeadDesiredLocked() {
	for _, id := range nn.placement.Blocks() {
		k := nn.placement.ReplicaCount(id)
		for _, m := range nn.placement.Replicas(id) {
			if node := nn.nodes[m]; node == nil || !node.alive {
				nn.ensureAliveDesiredLocked(id, k)
				metrics.Default.Counter("dfs.namenode.optimize_repairs").Inc()
				break
			}
		}
	}
}

// PopularitySnapshot returns the usage monitors' current per-block
// counts, merged across shards. It is a read-only observer: calling it
// any number of times never advances, prunes or otherwise changes
// monitor state.
func (nn *NameNode) PopularitySnapshot() map[core.BlockID]int64 {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return nn.peekSnapshotLocked()
}

// PlacementClone returns a deep copy of the desired placement for
// inspection (reporting, what-if tooling), flattened across shards into
// a single Placement. With one shard this is a plain clone.
func (nn *NameNode) PlacementClone() (*core.Placement, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return nil, ErrNotReady
	}
	return nn.placement.Merge()
}

// ShardImbalance reports max/mean over the shards' local objectives —
// the cross-shard balance statistic (1 when perfectly even or
// unsharded).
func (nn *NameNode) ShardImbalance() (float64, error) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return 0, ErrNotReady
	}
	if nn.placement.NumShards() == 1 {
		return 1, nil
	}
	return loadindex.Imbalance(nn.placement.ShardCosts(nil)), nil
}

// Converged reports whether every desired replica is confirmed and no
// surplus replicas remain — the steady state after reconciliation.
func (nn *NameNode) Converged() bool {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return false
	}
	if len(nn.tombstones) > 0 {
		return false
	}
	for _, id := range nn.placement.Blocks() {
		b := proto.BlockID(id)
		holders := nn.confirmed[b]
		desired := nn.placement.Replicas(id)
		if len(holders) != len(desired) {
			return false
		}
		for _, m := range desired {
			if !holders[proto.NodeID(m)] {
				return false
			}
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

// BlockReplicaAddrs lists the data addresses currently confirmed to hold
// block b, sorted, for tests and tooling.
func (nn *NameNode) BlockReplicaAddrs(b proto.BlockID) []string {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	var out []string
	for n := range nn.confirmed[b] {
		out = append(out, nn.nodes[n].addr)
	}
	sort.Strings(out)
	return out
}

// Health builds the fsck report: desired-versus-confirmed replica
// accounting per block plus the reconcile backlog. Healthy means every
// block meets its fault-tolerance requirements with confirmed replicas
// and nothing is pending.
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
		h.DesiredReplicas += nn.placement.ReplicaCount(id)
		holders := nn.confirmed[proto.BlockID(id)]
		spec, err := nn.placement.Spec(id)
		if err != nil {
			continue
		}
		confirmedLive := 0
		racks := make(map[topology.RackID]bool)
		for n := range holders {
			if !nn.nodes[n].alive {
				continue
			}
			confirmedLive++
			if r, err := nn.cluster.RackOf(topology.MachineID(n)); err == nil {
				racks[r] = true
			}
		}
		h.ConfirmedReplicas += confirmedLive
		if confirmedLive < spec.MinReplicas {
			h.UnderReplicatedBlocks++
		}
		if len(racks) < spec.MinRacks {
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
	}
	h.TombstonedBlocks = len(nn.tombstones)
	for _, n := range nn.nodes {
		if n.draining && !n.decommissioned {
			h.DrainingNodes++
		}
	}
	h.Healthy = h.UnderReplicatedBlocks == 0 && h.UnderSpreadBlocks == 0 &&
		h.PendingCommands == 0 && h.TombstonedBlocks == 0 && h.DeadNodes == 0 &&
		h.DrainingNodes == 0
	return h
}
