package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestGaugeSetAddConcurrent(t *testing.T) {
	var g Gauge
	g.Set(10)
	if got := g.Value(); got != 10 {
		t.Fatalf("Value = %v, want 10", got)
	}
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				g.Inc()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 10+workers*perWorker {
		t.Fatalf("Value = %v, want %v", got, 10+workers*perWorker)
	}
	g.Dec()
	if got := g.Value(); got != 10+workers*perWorker-1 {
		t.Fatalf("after Dec: Value = %v", got)
	}
}

func TestLogHistogramBuckets(t *testing.T) {
	var h LogHistogram
	vals := []float64{0.5, 1, 2, 1e-12, 1e12, 0, -3}
	for _, v := range vals {
		h.Observe(v)
	}
	if got := h.Count(); got != int64(len(vals)) {
		t.Fatalf("Count = %d, want %d", got, len(vals))
	}
	snap := h.Snapshot()
	if snap.Count != int64(len(vals)) {
		t.Fatalf("snapshot Count = %d, want %d", snap.Count, len(vals))
	}
	// Buckets are cumulative and end at +Inf with the full count.
	last := snap.Buckets[len(snap.Buckets)-1]
	if !math.IsInf(last.UpperBound, 1) || last.Count != int64(len(vals)) {
		t.Fatalf("last bucket = %+v, want +Inf with count %d", last, len(vals))
	}
	prev := int64(0)
	for _, b := range snap.Buckets {
		if b.Count < prev {
			t.Fatalf("cumulative counts not monotone: %+v", snap.Buckets)
		}
		prev = b.Count
	}
	// An in-range value must land in a bucket whose bound covers it.
	var one LogHistogram
	one.Observe(3.5)
	s := one.Snapshot()
	if len(s.Buckets) < 1 || s.Buckets[0].UpperBound < 3.5 {
		t.Fatalf("3.5 landed in bucket with bound %v", s.Buckets[0].UpperBound)
	}
	if s.Buckets[0].UpperBound > 4 {
		t.Fatalf("3.5 landed in too-wide bucket (bound %v > 4)", s.Buckets[0].UpperBound)
	}
}

func TestLogHistogramMerge(t *testing.T) {
	var a, b LogHistogram
	for i := 1; i <= 10; i++ {
		a.Observe(float64(i))
		b.Observe(float64(i) * 100)
	}
	a.Merge(&b)
	if got := a.Count(); got != 20 {
		t.Fatalf("merged Count = %d, want 20", got)
	}
	wantSum := 55.0 + 5500.0
	if diff := math.Abs(a.Sum() - wantSum); diff > 1e-9 {
		t.Fatalf("merged Sum = %v, want %v", a.Sum(), wantSum)
	}
}

func TestLogHistogramConcurrentObserve(t *testing.T) {
	var h LogHistogram
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("Count = %d, want %d", got, workers*perWorker)
	}
	wantSum := float64(perWorker) * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)
	if diff := math.Abs(h.Sum() - wantSum); diff > 1e-6 {
		t.Fatalf("Sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestRegistrySeriesIdentity(t *testing.T) {
	r := NewRegistry()
	// Same name+labels in any order resolves to the same series.
	c1 := r.Counter("rpc", L("a", "1"), L("b", "2"))
	c2 := r.Counter("rpc", L("b", "2"), L("a", "1"))
	if c1 != c2 {
		t.Fatal("label order created distinct series")
	}
	c1.Inc()
	if got := c2.Value(); got != 1 {
		t.Fatalf("aliased series Value = %d, want 1", got)
	}
	// Different label values are distinct series.
	if r.Counter("rpc", L("a", "x")) == c1 {
		t.Fatal("distinct labels resolved to same series")
	}
	// Memoized instruments are stable pointers.
	if r.Gauge("g") != r.Gauge("g") || r.Histogram("h") != r.Histogram("h") {
		t.Fatal("repeat lookups returned different instruments")
	}
}

// The single-label fast path of SeriesID must render exactly what the
// general path's %s=%q does, whatever the value needs escaped: series
// keys are compared as strings, so one differing byte would split a
// series in two.
func TestSeriesIDSingleLabelMatchesGeneralForm(t *testing.T) {
	for _, v := range []string{
		"", "read_block", `say "hi"`, `back\slash`, "tab\there", "new\nline",
		"héllo wörld", "日本語", "\x00\x7f", "bad utf8 \xff\xfe", "\u2028 sep", `{k="v"}`,
		strings.Repeat("long", 64),
	} {
		want := fmt.Sprintf("%s{%s=%q}", "aurora_rpc_errors", "type", v)
		if got := SeriesID("aurora_rpc_errors", []Label{L("type", v)}); got != want {
			t.Errorf("SeriesID with value %q = %s, want %s", v, got, want)
		}
	}
	// And the general path agrees with itself on a padded label set, so
	// the reference above is the format, not a coincidence.
	if got, want := SeriesID("m", []Label{L("b", "2"), L("a", `"`)}), `m{a="\"",b="2"}`; got != want {
		t.Errorf("two-label SeriesID = %s, want %s", got, want)
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	build := func(order []int) Snapshot {
		r := NewRegistry()
		for _, i := range order {
			switch i {
			case 0:
				r.Counter("c_b").Add(2)
			case 1:
				r.Counter("c_a", L("k", "v")).Inc()
			case 2:
				r.Gauge("g_z").Set(1.5)
			case 3:
				r.Histogram("h_m", L("type", "x")).Observe(0.25)
			}
		}
		return r.Snapshot()
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	if len(a.Counters) != len(b.Counters) || len(a.Gauges) != len(b.Gauges) || len(a.Histograms) != len(b.Histograms) {
		t.Fatalf("snapshots differ in shape: %+v vs %+v", a, b)
	}
	for i := range a.Counters {
		if a.Counters[i].Name != b.Counters[i].Name || a.Counters[i].Value != b.Counters[i].Value {
			t.Fatalf("counter order not deterministic: %+v vs %+v", a.Counters, b.Counters)
		}
	}
	if a.Counters[0].Name != "c_a" || a.Counters[1].Name != "c_b" {
		t.Fatalf("counters not sorted by series: %+v", a.Counters)
	}
}

func TestRegistryStringCompat(t *testing.T) {
	r := NewRegistry()
	r.Counter("dfs.client.retries").Add(3)
	r.Counter("untouched") // zero stays hidden
	out := r.String()
	if !strings.Contains(out, "dfs.client.retries") || !strings.Contains(out, "3") {
		t.Fatalf("String() = %q, want retries line", out)
	}
	if strings.Contains(out, "untouched") {
		t.Fatalf("String() shows zero counter: %q", out)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	r.Gauge("g").Set(4)
	r.Reset()
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("Reset left series behind: %+v", s)
	}
}

// Record-path benchmarks back the "no measurable regression" claim for
// instrumenting the RPC hot path: one histogram Observe is a frexp plus
// three atomic ops.
func BenchmarkLogHistogramObserve(b *testing.B) {
	var h LogHistogram
	b.RunParallel(func(pb *testing.PB) {
		v := 0.001
		for pb.Next() {
			h.Observe(v)
		}
	})
}

func BenchmarkGaugeAdd(b *testing.B) {
	var g Gauge
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			g.Add(1)
		}
	})
}

func BenchmarkRegistryCounterLookupInc(b *testing.B) {
	r := NewRegistry()
	lbl := L("type", "read_block")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Counter("aurora_rpc_errors", lbl).Inc()
		}
	})
}
