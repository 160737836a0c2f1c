package datanode

import (
	"maps"
	"testing"

	"aurora/internal/dfs/proto"
)

// FuzzTrackerMerge drives the report tracker through arbitrary
// interleavings of store events, heartbeat drains, failed-send merges
// and acks, against an independent last-event-wins model. The invariant
// is the one DESIGN.md §14 leans on: no store mutation is ever lost,
// and on a failed send the merged-back snapshot never clobbers an event
// that arrived after the drain.
func FuzzTrackerMerge(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 0, 0, 2, 3, 0})
	f.Add([]byte{0, 5, 2, 0, 1, 5, 3, 0, 0, 5})
	f.Add([]byte{0, 1, 2, 0, 4, 0, 0, 2, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rt := newReportTracker()
		ref := map[proto.BlockID]bool{}
		var snap, refSnap map[proto.BlockID]bool
		mergeBack := func() {
			rt.restore(snap)
			for id, present := range refSnap {
				if _, ok := ref[id]; !ok {
					ref[id] = present
				}
			}
			snap, refSnap = nil, nil
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, id := data[i]%5, proto.BlockID(data[i+1]%16)
			switch op {
			case 0:
				rt.noteReceived(id)
				ref[id] = true
			case 1:
				rt.noteDeleted(id)
				ref[id] = false
			case 2: // heartbeat drains the delta
				if snap == nil {
					snap = rt.take()
					refSnap = ref
					ref = map[proto.BlockID]bool{}
				}
			case 3: // the send failed: merge the snapshot back
				if snap != nil {
					mergeBack()
				}
			case 4: // the send was acked: the delta is delivered
				snap, refSnap = nil, nil
			}
		}
		if snap != nil {
			mergeBack()
		}
		got := rt.take()
		if !maps.Equal(got, ref) {
			t.Fatalf("tracker diverged from the last-event-wins model:\ngot:  %v\nwant: %v", got, ref)
		}
	})
}
