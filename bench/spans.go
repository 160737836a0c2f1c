package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req (the ID of the request's root span); Parent is the span
// that caused this one, 0 for a root or for background work such as
// heartbeats. Times are nanoseconds since the recorder was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Block  int64  `json:"block,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"` // payload bytes moved, where the layer moves any
	Err    bool   `json:"err,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spanRef names an open span so children can attach to it.
type spanRef struct{ id, req uint64 }

// recorder keeps spans in memory until the run ends. The wrappers the
// bench installs around each layer are the only writers; nothing inside
// the program under test knows about it.
type recorder struct {
	t0   time.Time
	next atomic.Uint64
	on   atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span under parent (the zero spanRef makes a root, whose
// request ID is its own ID). It returns the reference children use and
// the start offset to hand back to finish.
func (r *recorder) begin(parent spanRef) (spanRef, int64) {
	id := r.next.Add(1)
	req := parent.req
	if parent.id == 0 {
		req = id
	}
	return spanRef{id: id, req: req}, int64(time.Since(r.t0))
}

// spanAttrs are the optional facts a wrapper knows when a span ends.
type spanAttrs struct {
	block  int64
	bytes  int64
	failed bool
}

// finish records the span opened by begin.
func (r *recorder) finish(ref, parent spanRef, name string, start int64, a spanAttrs) {
	end := int64(time.Since(r.t0))
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: ref.id, Parent: parent.id, Req: ref.req, Name: name,
		Start: start, End: end, Block: a.block, Bytes: a.bytes, Err: a.failed,
	})
	r.mu.Unlock()
}

// take returns the recorded spans ordered by start time.
func (r *recorder) take() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children
// (read-ahead streams, a store put that runs while the next hop is
// still open) are merged first so shared time is subtracted once, and
// children are clipped to the parent so a child that outlives it cannot
// drive the result negative.
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStats aggregates spans by name.
type spanStats struct {
	count  map[string]int
	errs   map[string]int
	bytes  map[string]int64
	durMs  map[string][]float64
	selfMs map[string][]float64
}

func aggregate(spans []span) spanStats {
	st := spanStats{
		count: map[string]int{}, errs: map[string]int{}, bytes: map[string]int64{},
		durMs: map[string][]float64{}, selfMs: map[string][]float64{},
	}
	self := selfTimes(spans)
	for _, s := range spans {
		st.count[s.Name]++
		if s.Err {
			st.errs[s.Name]++
		}
		st.bytes[s.Name] += s.Bytes
		st.durMs[s.Name] = append(st.durMs[s.Name], float64(s.dur())/1e6)
		st.selfMs[s.Name] = append(st.selfMs[s.Name], float64(self[s.ID])/1e6)
	}
	return st
}

// p50 is the median duration in milliseconds of the spans named name.
func (st spanStats) p50(name string) float64 { return median(st.durMs[name]) }

// selfP50 is the median self time in milliseconds of the spans named name.
func (st spanStats) selfP50(name string) float64 { return median(st.selfMs[name]) }

// total is the summed duration in milliseconds of the spans named name.
func (st spanStats) total(name string) float64 {
	var sum float64
	for _, d := range st.durMs[name] {
		sum += d
	}
	return sum
}

// writeSpans stores the spans as JSON for offline inspection.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("bench: create span file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		//lint:ignore errcheck already failing; the encode error is the one to report
		_ = f.Close()
		return fmt.Errorf("bench: write span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("bench: close span file: %w", err)
	}
	return nil
}
