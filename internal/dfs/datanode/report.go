package datanode

import (
	"sort"
	"sync"

	"aurora/internal/dfs/proto"
)

// reportTracker accumulates the block report between heartbeats: every
// local store mutation is noted here, the heartbeat loop drains either
// the pending delta or, when one is due, a full report, and a failed
// send hands the report back so no event is ever lost. Pending state is
// a last-event-wins map (true = received, false = deleted), which makes
// retransmitted deltas idempotent on the namenode side.
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
// Nth heartbeat tick carries the complete block list even when the
// namenode has not requested one; between fulls, heartbeats carry only
// deltas (DESIGN.md §15.5). Woken reports do not count. With 200ms
// heartbeats that is one full report every ~13s, matching the
// reconcile loop's tolerance for divergence.
const fullReportEvery = 64

// report is one heartbeat's block report as drained from the tracker.
type report struct {
	// full means received is every block the store holds: the delta
	// from the empty set.
	full              bool
	received, deleted []proto.BlockID
	// digest is the set digest of the store listing, sent with a delta
	// only (zero on a full report).
	digest uint64
}

// drain takes one heartbeat's report. It clears the pending delta
// first and lists the store second, so a store event racing the
// heartbeat lands in the listing, in the fresh pending map, or both —
// never in neither, and either duplicate is idempotent on the namenode.
// A full report is due on boot, after a namenode resync request and
// every fullReportEvery ticked reports; it sends the listing. Otherwise
// the drained events go out with the listing's digest. A woken report
// (one a deletion asked for) does not advance the periodic count.
func (rt *reportTracker) drain(list func() []proto.BlockID, woken bool) report {
	rt.mu.Lock()
	full := rt.forceFull || rt.sinceFull >= fullReportEvery
	snap := rt.pending
	rt.pending = make(map[proto.BlockID]bool)
	if !full && !woken {
		rt.sinceFull++
	}
	rt.mu.Unlock()
	held := list()
	if full {
		return report{full: true, received: held}
	}
	r := report{digest: proto.BlockSetDigest(held), received: make([]proto.BlockID, 0, len(snap))}
	for id, present := range snap {
		if present {
			r.received = append(r.received, id)
		} else {
			r.deleted = append(r.deleted, id)
		}
	}
	sortBlockIDs(r.received)
	sortBlockIDs(r.deleted)
	return r
}

// ack records what became of a drained report. A delivered full report
// restarts the periodic count. An undelivered delta is merged back
// without clobbering events that arrived after the drain — the newer
// event wins. An undelivered full report stays due, so the next
// heartbeat retries it as a full report.
func (rt *reportTracker) ack(r report, delivered bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	switch {
	case delivered && r.full:
		rt.forceFull = false
		rt.sinceFull = 0
	case !delivered && !r.full:
		for _, id := range r.received {
			if _, ok := rt.pending[id]; !ok {
				rt.pending[id] = true
			}
		}
		for _, id := range r.deleted {
			if _, ok := rt.pending[id]; !ok {
				rt.pending[id] = false
			}
		}
	}
}

// forceFullNext escalates the next heartbeat to a full report — the
// namenode asked for a resync.
func (rt *reportTracker) forceFullNext() {
	rt.mu.Lock()
	rt.forceFull = true
	rt.mu.Unlock()
}

// sortBlockIDs orders a delta list so the wire encoding (and any log
// of it) is deterministic regardless of map iteration order.
func sortBlockIDs(ids []proto.BlockID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
