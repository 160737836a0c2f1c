package datanode

import (
	"sort"
	"sync"

	"aurora/internal/dfs/proto"
)

// reportTracker accumulates the incremental block report between
// heartbeats: every local store mutation is noted here, the heartbeat
// loop drains the pending set into a MsgHeartbeatDelta, and a failed
// send merges the snapshot back so no event is ever lost. Pending
// state is a last-event-wins map (true = received, false = deleted),
// which makes retransmitted deltas idempotent on the namenode side.
type reportTracker struct {
	mu        sync.Mutex
	pending   map[proto.BlockID]bool
	forceFull bool
	sinceFull int
}

func newReportTracker() *reportTracker {
	// The very first report after boot is always full: the namenode has
	// no baseline to apply deltas against.
	return &reportTracker{pending: make(map[proto.BlockID]bool), forceFull: true}
}

func (rt *reportTracker) noteReceived(id proto.BlockID) {
	rt.mu.Lock()
	rt.pending[id] = true
	rt.mu.Unlock()
}

func (rt *reportTracker) noteDeleted(id proto.BlockID) {
	rt.mu.Lock()
	rt.pending[id] = false
	rt.mu.Unlock()
}

// fullReportEvery is the periodic full-block-report safety net: every
// Nth heartbeat carries the complete block list even when the namenode
// has not requested one; between fulls, heartbeats carry only deltas
// (DESIGN.md §15). With 200ms heartbeats that is one full report every
// ~13s, matching the reconcile loop's tolerance for divergence.
const fullReportEvery = 64

// needFull reports whether the next heartbeat must carry a full block
// report: forced (boot, namenode resync request) or the periodic
// safety net every fullReportEvery heartbeats.
func (rt *reportTracker) needFull() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.forceFull || rt.sinceFull >= fullReportEvery
}

// beginFull clears the pending delta ahead of building a full report.
// Clearing first means a concurrently arriving block lands either in
// the store listing (and a harmless duplicate delta later) or in the
// fresh pending map — never in neither. forceFull stays set until the
// full report is acknowledged, so a failed send retries.
func (rt *reportTracker) beginFull() {
	rt.mu.Lock()
	rt.pending = make(map[proto.BlockID]bool)
	rt.mu.Unlock()
}

// fullAcked records a successfully delivered full report.
func (rt *reportTracker) fullAcked() {
	rt.mu.Lock()
	rt.forceFull = false
	rt.sinceFull = 0
	rt.mu.Unlock()
}

// forceFullNext escalates the next heartbeat to a full report — the
// namenode asked for a resync.
func (rt *reportTracker) forceFullNext() {
	rt.mu.Lock()
	rt.forceFull = true
	rt.mu.Unlock()
}

// take drains the pending delta for one heartbeat.
func (rt *reportTracker) take() map[proto.BlockID]bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	snap := rt.pending
	rt.pending = make(map[proto.BlockID]bool)
	rt.sinceFull++
	return snap
}

// restore merges an undelivered snapshot back into pending without
// clobbering events that arrived after take — the newer event wins.
func (rt *reportTracker) restore(snap map[proto.BlockID]bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for id, present := range snap {
		if _, ok := rt.pending[id]; !ok {
			rt.pending[id] = present
		}
	}
}

// sortBlockIDs orders a delta list so the wire encoding (and any log
// of it) is deterministic regardless of map iteration order.
func sortBlockIDs(ids []proto.BlockID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
