package popularity

import (
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func mustMonitor(t *testing.T, bucketLen int64, buckets int) *Monitor[string] {
	t.Helper()
	m, err := NewMonitor[string](bucketLen, buckets)
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	return m
}

func TestNewMonitorErrors(t *testing.T) {
	if _, err := NewMonitor[int](0, 2); !errors.Is(err, ErrBadBucketLen) {
		t.Errorf("bucketLen=0 err = %v, want ErrBadBucketLen", err)
	}
	if _, err := NewMonitor[int](-5, 2); !errors.Is(err, ErrBadBucketLen) {
		t.Errorf("bucketLen=-5 err = %v, want ErrBadBucketLen", err)
	}
	if _, err := NewMonitor[int](10, 0); !errors.Is(err, ErrBadBuckets) {
		t.Errorf("buckets=0 err = %v, want ErrBadBuckets", err)
	}
}

func TestWindow(t *testing.T) {
	m := mustMonitor(t, 60, 2)
	if got := m.Window(); got != 120 {
		t.Errorf("Window = %d, want 120", got)
	}
}

func TestRecordAndQueryWithinWindow(t *testing.T) {
	m := mustMonitor(t, 10, 2) // window = 20 ticks
	m.Record("a", 0)
	m.Record("a", 5)
	m.Record("a", 12)
	if got := m.Popularity("a", 15); got != 3 {
		t.Errorf("Popularity = %d, want 3", got)
	}
	if got := m.Popularity("b", 15); got != 0 {
		t.Errorf("Popularity(unknown) = %d, want 0", got)
	}
}

func TestSlidingExpiry(t *testing.T) {
	m := mustMonitor(t, 10, 2)
	m.Record("a", 0)  // bucket 0
	m.Record("a", 11) // bucket 1
	// At t=20 (bucket 2), bucket 0 has expired; only the t=11 access
	// remains in the window.
	if got := m.Popularity("a", 20); got != 1 {
		t.Errorf("Popularity after one bucket expiry = %d, want 1", got)
	}
	// At t=35 (bucket 3), everything has expired.
	if got := m.Popularity("a", 35); got != 0 {
		t.Errorf("Popularity after full expiry = %d, want 0", got)
	}
}

func TestRecordN(t *testing.T) {
	m := mustMonitor(t, 10, 3)
	m.RecordN("x", 5, 7)
	m.RecordN("x", 5, 0)  // no-op
	m.RecordN("x", 5, -3) // no-op
	if got := m.Popularity("x", 5); got != 7 {
		t.Errorf("Popularity = %d, want 7", got)
	}
}

func TestLateRecordWithinWindow(t *testing.T) {
	m := mustMonitor(t, 10, 3)
	m.Record("a", 25) // bucket 2
	m.Record("a", 5)  // bucket 0, late but still inside the 3-bucket ring
	if got := m.Popularity("a", 25); got != 2 {
		t.Errorf("Popularity = %d, want 2 (late record kept)", got)
	}
	// A record older than the whole window must be dropped.
	m.Record("b", 100) // bucket 10
	m.Record("b", 5)   // bucket 0 — expired
	if got := m.Popularity("b", 100); got != 1 {
		t.Errorf("Popularity = %d, want 1 (ancient record dropped)", got)
	}
}

func TestSnapshotAndPrune(t *testing.T) {
	m := mustMonitor(t, 10, 2)
	m.Record("hot", 0)
	m.Record("hot", 1)
	m.Record("cold", 0)
	snap := m.Snapshot(5)
	if snap["hot"] != 2 || snap["cold"] != 1 {
		t.Errorf("Snapshot = %v, want hot:2 cold:1", snap)
	}
	// After the window passes, snapshot is empty and keys are pruned.
	snap = m.Snapshot(100)
	if len(snap) != 0 {
		t.Errorf("expired Snapshot = %v, want empty", snap)
	}
	if got := m.Len(); got != 0 {
		t.Errorf("Len after prune = %d, want 0", got)
	}
}

func TestForget(t *testing.T) {
	m := mustMonitor(t, 10, 2)
	m.Record("a", 0)
	m.Forget("a")
	if got := m.Popularity("a", 0); got != 0 {
		t.Errorf("Popularity after Forget = %d, want 0", got)
	}
	if got := m.Len(); got != 0 {
		t.Errorf("Len after Forget = %d, want 0", got)
	}
}

func TestNegativeTicks(t *testing.T) {
	m := mustMonitor(t, 10, 2)
	m.Record("a", -15) // bucket -2
	m.Record("a", -5)  // bucket -1
	if got := m.Popularity("a", -5); got != 2 {
		t.Errorf("Popularity at t=-5 = %d, want 2", got)
	}
	if got := m.Popularity("a", 10); got != 0 {
		t.Errorf("Popularity at t=10 = %d, want 0 (expired)", got)
	}
}

func TestConcurrentRecord(t *testing.T) {
	m := mustMonitor(t, 1000, 4)
	var wg sync.WaitGroup
	const goroutines, each = 8, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				m.Record("k", int64(i))
			}
		}()
	}
	wg.Wait()
	if got := m.Popularity("k", each-1); got != goroutines*each {
		t.Errorf("concurrent Popularity = %d, want %d", got, goroutines*each)
	}
}

// Property: popularity never exceeds the total number of records, and
// monotonically advancing time never increases popularity when no new
// records arrive.
func TestPopularityBoundsProperty(t *testing.T) {
	f := func(times []uint16) bool {
		m, err := NewMonitor[int](7, 3)
		if err != nil {
			return false
		}
		var maxT int64
		for _, raw := range times {
			ts := int64(raw % 200)
			m.Record(1, ts)
			if ts > maxT {
				maxT = ts
			}
		}
		prev := m.Popularity(1, maxT)
		if prev > int64(len(times)) {
			return false
		}
		for now := maxT; now < maxT+60; now += 5 {
			p := m.Popularity(1, now)
			if p > prev {
				return false
			}
			prev = p
		}
		return prev == 0 // everything expired after 60 > window 21 ticks
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mustEWMA builds the "ewma" forecaster: the one-phase Seasonal.
func mustEWMA[K comparable](t *testing.T, alpha float64) *Seasonal[K] {
	t.Helper()
	e, err := New[K](NameEWMA, PredictorOptions{Alpha: alpha})
	if err != nil {
		t.Fatalf("New(ewma): %v", err)
	}
	return e
}

func TestEWMAErrors(t *testing.T) {
	for _, alpha := range []float64{-0.5, 1.5} {
		if _, err := New[int](NameEWMA, PredictorOptions{Alpha: alpha}); err == nil {
			t.Errorf("alpha=%v accepted", alpha)
		}
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := mustEWMA[string](t, 0.5)
	for i := 0; i < 30; i++ {
		e.Observe(map[string]int64{"a": 100})
	}
	got := e.Predict()["a"]
	if math.Abs(got-100) > 1e-6 {
		t.Errorf("EWMA estimate = %v, want ~100", got)
	}
}

func TestEWMADecaysAbsentKeys(t *testing.T) {
	e := mustEWMA[string](t, 0.5)
	e.Observe(map[string]int64{"a": 8})
	for i := 0; i < 50; i++ {
		e.Observe(map[string]int64{})
	}
	if _, ok := e.Predict()["a"]; ok {
		t.Error("EWMA kept a key that should have decayed to zero")
	}
}

func TestEWMAOfAlphaOneTracksExactly(t *testing.T) {
	e := mustEWMA[string](t, 1)
	e.Observe(map[string]int64{"a": 5})
	e.Observe(map[string]int64{"a": 9})
	if got := e.Predict()["a"]; got != 9 {
		t.Errorf("alpha=1 estimate = %v, want 9", got)
	}
}

// Regression for EWMA memory growth: keys that stop appearing in
// snapshots must decay below the prune threshold and be dropped, so the
// estimate map shrinks back to the live working set instead of retaining
// every key ever observed.
func TestEWMAMapShrinksAfterKeysDisappear(t *testing.T) {
	e := mustEWMA[int](t, 0.5)
	wide := make(map[int]int64, 200)
	for i := 0; i < 200; i++ {
		wide[i] = 10
	}
	e.Observe(wide)
	if got := e.Len(); got != 200 {
		t.Fatalf("Len after wide snapshot = %d, want 200", got)
	}
	// Only key 0 stays hot; 10*0.5^n drops below the 1e-6 prune
	// threshold after ~24 periods, so 40 is comfortably past it.
	hot := map[int]int64{0: 10}
	for i := 0; i < 40; i++ {
		e.Observe(hot)
	}
	if got := e.Len(); got != 1 {
		t.Fatalf("Len after cold keys decayed = %d, want 1 (map did not shrink)", got)
	}
	pred := e.Predict()
	if v, ok := pred[0]; !ok || math.Abs(v-10) > 1e-3 {
		t.Fatalf("hot key estimate = %v (present %v), want ~10", v, ok)
	}
}
