package datanode

import (
	"maps"
	"testing"

	"aurora/internal/dfs/proto"
)

// FuzzTrackerMerge drives the report tracker through arbitrary
// interleavings of store events, ticked and woken heartbeat drains,
// failed sends, delivered reports and namenode resync requests. A model
// receiver stands in for the namenode: it replaces its view with a full
// report's Received and applies a delta's Received and Deleted
// otherwise. The invariant is the one DESIGN.md §15.5 leans on: no
// store mutation is ever lost — a failed delta, ticked or woken, is
// merged back without clobbering newer events, a failed full report is
// retried as a full report — so after the final delivered report the
// receiver's view equals the store. A model of the full-report cadence
// rides along: a report is full exactly when one was forced (boot,
// resync request, undelivered full) or fullReportEvery ticked deltas
// went out since the last delivered full one; woken reports never
// advance that count.
func FuzzTrackerMerge(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 0, 0, 2, 3, 0})
	f.Add([]byte{0, 5, 2, 0, 1, 5, 3, 0, 0, 5})
	f.Add([]byte{0, 1, 2, 0, 4, 0, 0, 2, 2, 0})
	f.Add([]byte{2, 0, 4, 0, 0, 3, 2, 0, 0, 4, 5, 0, 1, 3, 2, 0, 3, 0, 2, 0, 4, 0})
	f.Add([]byte{0, 0, 2, 0, 3, 0})             // the boot-time full report fails
	f.Add([]byte{2, 0, 4, 0, 0, 1, 2, 0, 3, 0}) // a delta fails
	f.Add([]byte{2, 0, 4, 0, 1, 1, 6, 0, 3, 0}) // a woken delta fails
	// fullReportEvery ticked deltas, with woken ones between them that
	// must not bring the next full report forward.
	cadence := []byte{2, 0, 4, 0}
	for range fullReportEvery {
		cadence = append(cadence, 1, 3, 6, 0, 4, 0, 2, 0, 4, 0)
	}
	f.Add(append(cadence, 6, 0, 4, 0, 2, 0, 4, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		rt := newReportTracker()
		store := map[proto.BlockID]bool{}
		list := func() []proto.BlockID {
			ids := make([]proto.BlockID, 0, len(store))
			for id := range store {
				ids = append(ids, id)
			}
			return ids
		}
		view := map[proto.BlockID]bool{}
		forced, ticks := true, 0 // the model of the full-report cadence
		drain := func(woken bool) report {
			r := rt.drain(list, woken)
			if want := forced || ticks >= fullReportEvery; r.full != want {
				t.Fatalf("drained full=%v (woken=%v), want %v: forced=%v after %d ticked deltas", r.full, woken, want, forced, ticks)
			}
			if !r.full && !woken {
				ticks++
			}
			if rt.sinceFull != ticks {
				t.Fatalf("tracker counts %d ticked deltas since the last full report, model %d (woken=%v)", rt.sinceFull, ticks, woken)
			}
			return r
		}
		deliver := func(r report) {
			rt.ack(r, true)
			if r.full {
				view = map[proto.BlockID]bool{}
				forced, ticks = false, 0
			}
			for _, id := range r.received {
				view[id] = true
			}
			for _, id := range r.deleted {
				delete(view, id)
			}
		}
		var out *report // the drained report on its way, if any
		for i := 0; i+1 < len(data); i += 2 {
			op, id := data[i]%7, proto.BlockID(data[i+1]%16)
			switch op {
			case 0:
				store[id] = true
				rt.noteReceived(id)
			case 1:
				delete(store, id)
				rt.noteDeleted(id)
			case 2, 6: // a tick (2) or a deletion's wake (6) drains a report
				if out == nil {
					r := drain(op == 6)
					out = &r
				}
			case 3: // the send failed
				if out != nil {
					rt.ack(*out, false)
					out = nil
				}
			case 4: // the report was delivered
				if out != nil {
					deliver(*out)
					out = nil
				}
			case 5: // the namenode asks for a full report
				rt.forceFullNext()
				forced = true
			}
		}
		if out != nil {
			rt.ack(*out, false)
		}
		deliver(drain(false))
		if !maps.Equal(view, store) {
			t.Fatalf("receiver's view diverged from the store after the final report:\nview:  %v\nstore: %v", view, store)
		}
	})
}
