package namenode

import (
	"fmt"
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
	nn.healUnhealthyLocked()
	nn.drainLocked()
	nn.reapTombstonesLocked()
	nn.driveConvergenceLocked()
	nn.exportLoadTelemetryLocked()
}

// exportLoadTelemetryLocked publishes per-machine load and hotspot
// gauges from the usage monitor's current counts; it is those gauges'
// only writer, so they always mean window loads, never forecast ones.
// Loads are computed on the side (Σ popularity_i/k_i over each machine's
// replicas, the paper's load definition) rather than via SetPopularity,
// so refreshing telemetry never perturbs the placement state the
// optimizer and reconcile decisions read.
func (nn *NameNode) exportLoadTelemetryLocked() {
	snap := nn.monitor.Peek(nn.clock().UnixNano())
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

// detectDeadLocked marks silent datanodes dead and forgets what they
// were confirmed to hold; the heal pass that follows re-homes their
// desired replicas — the fault-tolerance behaviour HDFS implements and
// the paper's reliability constraints assume.
func (nn *NameNode) detectDeadLocked() {
	now := nn.clock()
	for _, node := range nn.nodes {
		if !node.alive || now.Sub(node.lastSeen) < nn.cfg.DeadTimeout {
			continue
		}
		node.alive = false
		nn.markDirtyLocked()
		metrics.Default.Counter("dfs.namenode.dead_detected").Inc()
		for _, holders := range nn.confirmed {
			delete(holders, node.id)
		}
		// The wipe above invalidates the node's incremental set digest;
		// zero it to match the now-empty confirmation set and demand a
		// full baseline if the node ever comes back.
		node.digest = 0
		node.wantFull = true
		delete(nn.pendingCmds, node.id)
	}
}

// keepSize is healLocked's k for callers that re-home a block without
// resizing it: as many replicas as it has off draining machines, and at
// least its MinReplicas.
const keepSize = 0

// healLocked is the one way the namenode re-homes a block's desired
// replicas, whatever made it necessary — a machine died or is draining,
// the file's replication factor changed, or a placer, optimizer or
// external rebalancer that knows only the static topology put a replica
// somewhere unhealthy. The block ends up with k desired replicas on
// healthy machines over its MinRacks racks, as far as capacity allows
// (DESIGN.md §10.3):
//
//   - replicas on dead machines are dropped, and on draining machines
//     that hold no confirmed copy (a departing machine gets no new data);
//   - confirmed copies on draining machines are set aside for the rest of
//     the step: they stay desired until drainLocked releases them, but
//     count toward neither k nor the spread, so their replacements are
//     chosen now;
//   - replicas are added on healthy machines (alive, not draining, with
//     physical room; the shard's quota is core's own check) while the
//     block is short of k replicas or of MinRacks racks — when only racks
//     are short, only in a rack it is not in yet;
//   - while it has more than k, the most-loaded holder whose removal
//     keeps the spread is dropped.
//
// Which machine gains or loses a replica is core's decision; this
// function only says which machines are healthy. It reports whether the
// desired set changed.
func (nn *NameNode) healLocked(id core.BlockID, k int) bool {
	p := nn.placement.For(id)
	spec, err := p.Spec(id)
	if err != nil {
		return false
	}
	changed := false
	holders := p.Replicas(id)
	var parked []topology.MachineID
	for _, m := range holders {
		node := nn.nodes[m]
		if node.alive && !node.draining {
			continue
		}
		//lint:ignore errcheck the replica was just enumerated; removal cannot fail
		_ = p.RemoveReplica(id, m)
		if node.alive && nn.confirmed[proto.BlockID(id)][node.id] {
			parked = append(parked, m)
		} else {
			changed = true
		}
	}
	if k == keepSize {
		k = max(len(holders)-len(parked), spec.MinReplicas)
	}
	for {
		short := p.ReplicaCount(id) < k
		if !short && p.RackSpread(id) >= spec.MinRacks {
			break
		}
		m := p.ReplicaDestination(id, func(m topology.MachineID) bool {
			node := nn.nodes[m]
			return node.alive && !node.draining && nn.placement.FreeCapacity(m) > 0 &&
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
	for _, m := range parked {
		//lint:ignore errcheck the slot was freed above and nothing is added on a draining machine
		_ = p.AddReplica(id, m)
	}
	if changed {
		nn.markDirtyLocked()
	}
	return changed
}

// healUnhealthyLocked re-homes every block with a desired replica on a
// dead or draining machine and reports how many it changed. It is the
// shared post-pass of everything that can leave one there — dead
// detection, a drain, and an optimizer period or external rebalancer
// working over the static topology, where a crashed machine looks
// attractively empty — and it does no per-block work while every machine
// is healthy.
func (nn *NameNode) healUnhealthyLocked() int {
	healed := 0
	for _, node := range nn.nodes {
		if node.alive && !node.draining {
			continue
		}
		for _, id := range nn.placement.BlocksOn(topology.MachineID(node.id)) {
			if nn.healLocked(id, keepSize) {
				healed++
			}
		}
	}
	return healed
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
	// A report completes an in-flight replication only by naming its
	// exact (block, target) pair; one that never will — the target died
	// or the block was deleted — expires here. A replica still missing
	// on a live target is re-issued below, on this same pass.
	for key, issued := range nn.inflight {
		if now.Sub(issued) >= inflightTTL {
			delete(nn.inflight, key)
		}
	}
	for _, id := range nn.placement.Blocks() {
		b := proto.BlockID(id)
		if _, ok := nn.writing[b]; ok {
			continue // initial pipeline write in flight
		}
		if !nn.placement.For(id).Feasible(id) {
			// Short of replicas or racks because none were to be had when
			// it was last healed: try again, so the count returns when
			// capacity does and the spread when the rack does.
			nn.healLocked(id, keepSize)
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
			if _, ok := nn.inflight[key]; ok {
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
	nn.pendingCmds[n] = append(nn.pendingCmds[n], cmd)
}

// MovementStats reports completed replica-transfer durations and the
// number of replicate/delete commands handed to datanodes so far. The
// returned slice is a copy.
func (nn *NameNode) MovementStats() (durations []time.Duration, replicates, deletes int64) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	durations = make([]time.Duration, len(nn.moveDurations))
	copy(durations, nn.moveDurations)
	return durations, nn.commandsIssued[proto.CmdReplicate], nn.commandsIssued[proto.CmdDelete]
}

// WithPlacement refreshes block popularities from the usage monitor,
// then runs fn against the live desired placement under the namenode
// lock. It is the integration point for external rebalancers (the
// Scarlett baseline in the testbed experiment uses it; Aurora's own
// optimizer uses OptimizeNow). On a sharded namenode fn runs once per
// shard, in shard order — each invocation sees one partition of the
// block map; with one shard the behaviour is exactly the unsharded one.
// fn sees the static topology; replicas it leaves on dead or draining
// machines are re-homed before WithPlacement returns.
func (nn *NameNode) WithPlacement(fn func(*core.Placement) error) error {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if !nn.ready {
		return ErrNotReady
	}
	if err := nn.refreshPopularityLocked(); err != nil {
		return err
	}
	for i := 0; i < nn.placement.NumShards(); i++ {
		if err := fn(nn.placement.Shard(i)); err != nil {
			return err
		}
	}
	nn.healUnhealthyLocked()
	nn.markDirtyLocked()
	return nil
}

// refreshPopularityLocked is the period's forecast step: the usage
// monitor's window, through the forecaster, into every block's
// popularity. It is the one consuming path allowed to call
// Monitor.Snapshot (and so to prune expired keys); with a predictor it
// also exports the score of the previous forecast.
func (nn *NameNode) refreshPopularityLocked() error {
	score, err := nn.forecast.Apply(nn.placement, nn.monitor.Snapshot(nn.clock().UnixNano()))
	if score.Scored {
		telemetry.ExportPredictionError(metrics.Default, score.WAE, score.TopK,
			metrics.L("predictor", nn.cfg.Predictor))
	}
	return err
}

// OptimizeNow runs one Aurora optimization period (Algorithm 5) against
// the live metadata: block popularities are refreshed from the usage
// monitor, each shard's period runs concurrently over the bounded
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
	// The optimizer works over the static topology, so a period during a
	// fault window runs normally and this pass re-homes what it put on
	// dead or draining machines, before the debug invariant assert.
	metrics.Default.Counter("dfs.namenode.optimize_repairs").Add(int64(nn.healUnhealthyLocked()))
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

// PopularitySnapshot returns the usage monitor's current per-block
// counts. It is a read-only observer: calling it any number of times
// never advances, prunes or otherwise changes monitor state.
func (nn *NameNode) PopularitySnapshot() map[core.BlockID]int64 {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return nn.monitor.Peek(nn.clock().UnixNano())
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
