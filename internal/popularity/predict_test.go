package popularity

import (
	"cmp"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// Regression for the EWMA cold-start bias: a brand-new key's first
// observation must seed the estimate at the observed value itself, so a
// new hot block reaches its steady-state estimate within one
// observation. The old code seeded at alpha*v, which underestimated new
// keys by 1/alpha for ~1/alpha periods.
func TestEWMAColdStartReachesSteadyStateInOneObservation(t *testing.T) {
	const alpha = 0.25
	e := mustEWMA[string](t, alpha)
	e.Observe(map[string]int64{"new-hot": 400})
	first := e.Predict()["new-hot"]
	if math.Abs(first-400) > 1e-9 {
		t.Fatalf("first-observation estimate = %v, want 400 (cold-start bias)", first)
	}
	// Steady state for a constant signal is the signal itself; the first
	// estimate must already be there, not 1/alpha below it.
	for i := 0; i < 50; i++ {
		e.Observe(map[string]int64{"new-hot": 400})
	}
	steady := e.Predict()["new-hot"]
	if math.Abs(first-steady) > 1e-6 {
		t.Fatalf("first estimate %v != steady state %v", first, steady)
	}
}

// Regression for scrape-mutates-state: Peek must return exactly what
// Snapshot would, while leaving the monitor untouched — Len, per-key
// popularity and later Peeks are identical no matter how many times a
// telemetry exporter scrapes.
func TestPeekNeverMutatesMonitor(t *testing.T) {
	m := mustMonitor(t, 10, 2)
	m.Record("hot", 0)
	m.Record("hot", 1)
	m.Record("cold", 0)
	m.Record("stale", -100) // fully expired long ago

	const now = 15
	want := map[string]int64{"hot": 2, "cold": 1}
	lenBefore := m.Len()
	for i := 0; i < 1000; i++ {
		got := m.Peek(now)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Peek #%d = %v, want %v", i, got, want)
		}
	}
	if got := m.Len(); got != lenBefore {
		t.Fatalf("Len changed %d -> %d after repeated Peeks", lenBefore, got)
	}
	// Peeking far in the future must not prune either; only Snapshot may.
	if got := m.Peek(10_000); len(got) != 0 {
		t.Fatalf("future Peek = %v, want empty", got)
	}
	if got := m.Len(); got != lenBefore {
		t.Fatalf("Len changed %d -> %d after future Peek (pruned)", lenBefore, got)
	}
	// And Peek must agree with Snapshot at the same instant.
	if got := m.Snapshot(now); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot after Peeks = %v, want %v", got, want)
	}
}

// refModel is a brute-force reference for Monitor: it keeps every
// accepted (bucket, n) record per key plus the same last-advanced
// frontier, and recomputes window sums from scratch. The only shared
// logic with the real implementation is the floor-division bucket
// index.
type refModel struct {
	bucketLen  int64
	numBuckets int64
	keys       map[string]*refKey
}

type refKey struct {
	recs map[int64]int64 // absolute bucket -> count
	last int64
}

func (r *refModel) bucket(now int64) int64 {
	b := now / r.bucketLen
	if now < 0 && now%r.bucketLen != 0 {
		b--
	}
	return b
}

func (r *refModel) advance(k *refKey, to int64) {
	if to <= k.last {
		return
	}
	// Buckets at or before to-numBuckets scroll out of the ring forever.
	for b := range k.recs {
		if b <= to-r.numBuckets {
			delete(k.recs, b)
		}
	}
	k.last = to
}

func (r *refModel) recordN(key string, now, n int64) {
	if n <= 0 {
		return
	}
	b := r.bucket(now)
	k, ok := r.keys[key]
	if !ok {
		k = &refKey{recs: map[int64]int64{}, last: b}
		r.keys[key] = k
	}
	r.advance(k, b)
	if b <= k.last-r.numBuckets {
		return // too old
	}
	k.recs[b] += n
}

func (r *refModel) sum(k *refKey) int64 {
	var total int64
	for b, n := range k.recs {
		if b > k.last-r.numBuckets {
			total += n
		}
	}
	return total
}

func (r *refModel) popularity(key string, now int64) int64 {
	k, ok := r.keys[key]
	if !ok {
		return 0
	}
	r.advance(k, r.bucket(now))
	return r.sum(k)
}

func (r *refModel) snapshot(now int64) map[string]int64 {
	b := r.bucket(now)
	out := map[string]int64{}
	for key, k := range r.keys {
		r.advance(k, b)
		if total := r.sum(k); total != 0 {
			out[key] = total
		} else {
			delete(r.keys, key)
		}
	}
	return out
}

func (r *refModel) peek(now int64) map[string]int64 {
	b := r.bucket(now)
	out := map[string]int64{}
	for key, k := range r.keys {
		// Read-only: count records that would survive an advance to b,
		// without performing it. A query at or before the frontier sees
		// the whole live window (advance is a backwards no-op).
		limit := max(b, k.last) - r.numBuckets
		var total int64
		for rb, n := range k.recs {
			if rb > limit {
				total += n
			}
		}
		if total != 0 {
			out[key] = total
		}
	}
	return out
}

// Model-based property test for the circular-buffer advance/too-old
// logic: seeded random op sequences (out-of-order records, negative
// ticks, exact window-boundary ticks, RecordN with huge and non-positive
// n, interleaved queries, pruning snapshots and read-only peeks) must
// agree with the brute-force reference on every query, and Peek must
// never change observable state.
func TestMonitorMatchesReferenceModel(t *testing.T) {
	const (
		bucketLen  = 7
		numBuckets = 3
		ops        = 4000
	)
	keys := []string{"a", "b", "c", "d"}
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewPCG(seed, 99))
		m := mustMonitor(t, bucketLen, numBuckets)
		ref := &refModel{bucketLen: bucketLen, numBuckets: numBuckets, keys: map[string]*refKey{}}
		// Ticks wander around a moving frontier so records land before,
		// inside and exactly on window boundaries, including negatives.
		frontier := int64(-20)
		randTick := func() int64 {
			d := rng.Int64N(4 * bucketLen * numBuckets)
			off := d - bucketLen*numBuckets // past and future of the frontier
			if rng.IntN(8) == 0 {
				// Exact window-boundary ticks: the first tick of a
				// bucket and the last tick of the previous one.
				off = (off / bucketLen) * bucketLen
				if rng.IntN(2) == 0 {
					off--
				}
			}
			return frontier + off
		}
		for i := 0; i < ops; i++ {
			if rng.IntN(10) == 0 {
				frontier += rng.Int64N(2 * bucketLen * numBuckets)
			}
			key := keys[rng.IntN(len(keys))]
			switch op := rng.IntN(10); {
			case op < 4: // Record
				ts := randTick()
				m.Record(key, ts)
				ref.recordN(key, ts, 1)
			case op < 6: // RecordN incl. saturating and non-positive n
				ts := randTick()
				var n int64
				switch rng.IntN(4) {
				case 0:
					n = math.MaxInt64 / 4 // saturation-scale counts
				case 1:
					n = -rng.Int64N(100) // no-op
				default:
					n = 1 + rng.Int64N(50)
				}
				m.RecordN(key, ts, n)
				ref.recordN(key, ts, n)
			case op < 8: // Popularity query (also advances)
				ts := randTick()
				got, want := m.Popularity(key, ts), ref.popularity(key, ts)
				if got != want {
					t.Fatalf("seed %d op %d: Popularity(%q, %d) = %d, want %d", seed, i, key, ts, got, want)
				}
			case op < 9: // Snapshot (advances + prunes)
				ts := randTick()
				got, want := m.Snapshot(ts), ref.snapshot(ts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: Snapshot(%d) = %v, want %v", seed, i, ts, got, want)
				}
				if m.Len() != len(ref.keys) {
					t.Fatalf("seed %d op %d: Len after snapshot = %d, want %d", seed, i, m.Len(), len(ref.keys))
				}
			default: // Peek (pure)
				ts := randTick()
				lenBefore := m.Len()
				got, want := m.Peek(ts), ref.peek(ts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d op %d: Peek(%d) = %v, want %v", seed, i, ts, got, want)
				}
				if m.Len() != lenBefore {
					t.Fatalf("seed %d op %d: Peek changed Len %d -> %d", seed, i, lenBefore, m.Len())
				}
			}
		}
	}
}

func TestPredictorRegistry(t *testing.T) {
	for _, name := range []string{NameEWMA, NameSeasonal, "SEASONAL", " ewma "} {
		p, err := New[int](name, PredictorOptions{})
		if err != nil || p == nil {
			t.Errorf("New(%q) = %v, %v", name, p, err)
		}
		if IsReactive(name) {
			t.Errorf("IsReactive(%q) = true, want false", name)
		}
	}
	// The rejected forecasters and the retired reactive spellings.
	for _, name := range []string{"bogus", "ranker", "historical", "none", "off"} {
		if _, err := New[int](name, PredictorOptions{}); err == nil {
			t.Errorf("New(%q) accepted", name)
		}
		if IsReactive(name) {
			t.Errorf("IsReactive(%q) = true, want false", name)
		}
	}
	for _, name := range []string{"", "reactive", "Reactive"} {
		if !IsReactive(name) {
			t.Errorf("IsReactive(%q) = false, want true", name)
		}
	}
}

// "ewma" is the one-phase Seasonal, and that must be the plain EWMA bit
// for bit: level p <- alpha*obs + (1-alpha)*p, seeded at the first
// observation, dropped below 1e-6.
func TestEWMAMatchesRecurrence(t *testing.T) {
	const alpha = 0.3
	e := mustEWMA[int](t, alpha)
	ref := map[int]float64{}
	rng := rand.New(rand.NewPCG(7, 7))
	for tick := 0; tick < 200; tick++ {
		snap := map[int]int64{}
		for k := 0; k < 30; k++ {
			if rng.IntN(3) == 0 {
				snap[k] = 1 + rng.Int64N(1000)
			}
		}
		for k, p := range ref {
			if next := alpha*float64(snap[k]) + (1-alpha)*p; next < 1e-6 {
				delete(ref, k)
			} else {
				ref[k] = next
			}
		}
		for k, v := range snap {
			if _, ok := ref[k]; !ok {
				ref[k] = float64(v)
			}
		}
		e.Observe(snap)
		if got := e.Predict(); !reflect.DeepEqual(got, ref) {
			t.Fatalf("tick %d: ewma forecast %v, want recurrence %v", tick, got, ref)
		}
	}
}

func TestSeasonalErrors(t *testing.T) {
	if _, err := NewSeasonal[int](0, 0.5); err == nil {
		t.Error("season=0 accepted")
	}
	if _, err := NewSeasonal[int](24, 0); err == nil {
		t.Error("alpha=0 accepted")
	}
}

// A square-wave workload (hot half-season, cold half-season) is the
// paper's diurnal case. After a couple of seasons the seasonal
// predictor must forecast the phase transition before it happens, where
// EWMA necessarily lags by construction.
func TestSeasonalLearnsSquareWaveAndBeatsEWMA(t *testing.T) {
	const (
		season = 8
		hi     = 100
		lo     = 4
	)
	s, err := NewSeasonal[string](season, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ew := mustEWMA[string](t, 0.5)
	val := func(tick int) int64 {
		if tick%season < season/2 {
			return hi
		}
		return lo
	}
	var seasonalErr, ewmaErr float64
	for tick := 0; tick < 6*season; tick++ {
		obs := map[string]int64{"k": val(tick)}
		if tick >= 3*season { // scoring window: model had 3 seasons to learn
			target := float64(val(tick))
			seasonalErr += math.Abs(s.Predict()["k"] - target)
			ewmaErr += math.Abs(ew.Predict()["k"] - target)
		}
		s.Observe(obs)
		ew.Observe(obs)
	}
	if seasonalErr >= ewmaErr {
		t.Fatalf("seasonal error %v >= ewma error %v on a square wave", seasonalErr, ewmaErr)
	}
	// And the learned forecast at the transition must be near the right
	// level: next phase is 6*season % season = 0, i.e. the hot phase.
	if got := s.Predict()["k"]; math.Abs(got-hi) > hi/4 {
		t.Fatalf("forecast at hot-phase boundary = %v, want ~%d", got, hi)
	}
}

// An aperiodic (constant) signal must make the seasonal predictor fall
// back to its level EWMA — the flat phase profile fails the spread
// test — so it behaves no worse than EWMA on non-seasonal keys.
func TestSeasonalFallsBackOnAperiodicSignal(t *testing.T) {
	s, err := NewSeasonal[string](6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 30; tick++ {
		s.Observe(map[string]int64{"k": 50})
	}
	if got := s.Predict()["k"]; math.Abs(got-50) > 1e-6 {
		t.Fatalf("aperiodic forecast = %v, want 50 (level fallback)", got)
	}
}

// Forecast is Observe then Predict without the Observe: on a seeded
// run with periodic, decaying, dropped and re-appearing keys (zero
// counts included), each period's Forecast equals, bit for bit, what
// Predict returns once the same snapshot is observed, and leaves the
// predictor as it was.
func TestSeasonalForecastMatchesObservePredict(t *testing.T) {
	s, err := NewSeasonal[int](3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 9))
	for tick := 0; tick < 60; tick++ {
		snap := make(map[int]int64)
		for k := 0; k < 8; k++ {
			switch {
			case k < 3 && tick%3 == k:
				snap[k] = 40
			case k >= 6 && tick > 10 && tick < 45:
				// silent: decays and drops, then re-appears
			case rng.IntN(3) == 0:
				snap[k] = int64(rng.IntN(4)) // zero counts too
			}
		}
		tickBefore, lenBefore := s.tick, s.Len()
		got := s.Forecast(snap)
		if s.tick != tickBefore || s.Len() != lenBefore {
			t.Fatalf("tick %d: Forecast changed the predictor", tick)
		}
		s.Observe(snap)
		want := s.Predict()
		if len(got) != len(want) {
			t.Fatalf("tick %d: Forecast has %d keys, Predict %d", tick, len(got), len(want))
		}
		for k, w := range want {
			if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("tick %d: key %d forecast %v, Predict %v", tick, k, g, w)
			}
		}
	}
}

func TestSeasonalDropsDecayedKeys(t *testing.T) {
	s, err := NewSeasonal[int](4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s.Observe(map[int]int64{1: 10})
	for i := 0; i < 200; i++ {
		s.Observe(map[int]int64{})
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len after decay = %d, want 0", got)
	}
}

func TestWeightedAbsError(t *testing.T) {
	pred := map[string]float64{"a": 10, "b": 5, "ghost": 3}
	actual := map[string]int64{"a": 10, "b": 10, "c": 5}
	// |10-10| + |5-10| + |0-5| + |3-0| = 13 over total 25.
	if got, want := WeightedAbsError(pred, actual), 13.0/25.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("WeightedAbsError = %v, want %v", got, want)
	}
	// Perfect forecast scores 0; empty period divides by 1, not 0.
	if got := WeightedAbsError(map[string]float64{"a": 10}, map[string]int64{"a": 10}); got != 0 {
		t.Fatalf("perfect forecast error = %v, want 0", got)
	}
	if got := WeightedAbsError(map[string]float64{"a": 2}, map[string]int64{}); got != 2 {
		t.Fatalf("empty-period error = %v, want 2", got)
	}
}

// Float addition is not associative: summing in map order made the last
// bits of one score change from call to call, and with them the exported
// aurora_predictor_wae series of a seeded run. The sum must follow key
// order.
func TestWeightedAbsErrorIsBitStable(t *testing.T) {
	pred := make(map[int]float64)
	actual := make(map[int]int64)
	for k := 0; k < 5000; k++ {
		pred[k] = float64(k%97) / 7
		if k%3 != 0 {
			actual[k+1000] = int64(k % 89)
		}
	}
	var errSum, total float64
	for k := 0; k < 6000; k++ {
		a := float64(actual[k])
		errSum += math.Abs(pred[k] - a)
		total += a
	}
	want := errSum / total
	for i := 0; i < 20; i++ {
		if got := WeightedAbsError(pred, actual); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("call %d: WeightedAbsError = %v, want %v (key-order sum)", i, got, want)
		}
	}
}

func TestTopKOverlap(t *testing.T) {
	pred := map[int]float64{1: 100, 2: 90, 3: 80, 4: 1}
	actual := map[int]int64{1: 50, 2: 40, 9: 30, 4: 2}
	// top3(pred) = {1,2,3}, top3(actual) = {1,2,9} -> 2/3.
	if got, want := TopKOverlap(pred, actual, 3), 2.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("TopKOverlap = %v, want %v", got, want)
	}
	// Short hot sets: divisor is the realized hot-set size.
	if got := TopKOverlap(map[int]float64{7: 5}, map[int]int64{7: 5}, 20); got != 1 {
		t.Fatalf("short hot-set overlap = %v, want 1", got)
	}
	if got := TopKOverlap(map[int]float64{}, map[int]int64{}, 3); got != 0 {
		t.Fatalf("empty overlap = %v, want 0", got)
	}
	if got := TopKOverlap(pred, actual, 0); got != 0 {
		t.Fatalf("k=0 overlap = %v, want 0", got)
	}
}

// topKBySort is the selection TopK replaces: sort every entry by value
// descending then key ascending, keep the first k.
func topKBySort[K, V cmp.Ordered](m map[K]V, k int) []K {
	keys := make([]K, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if len(keys) > k {
		keys = keys[:k]
	}
	return keys
}

// The bounded selection returns exactly the prefix a full sort gives,
// ties included, for every k from none to more than the map holds; and
// TopKOverlap built on it scores like the sort it replaced.
func TestTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 300; trial++ {
		n := rng.IntN(60)
		counts := make(map[int]int64, n)
		forecast := make(map[int]float64, n)
		for i := 0; i < n; i++ {
			// A narrow value range makes ties common; zeros and
			// negatives exercise TopKOverlap's positive filter.
			counts[rng.IntN(200)] = int64(rng.IntN(6))
			forecast[rng.IntN(200)] = float64(rng.IntN(7)-1) / 2
		}
		for _, k := range []int{0, 1, 5, DefaultTopK, n, n + 3} {
			if got, want := TopK(counts, k), topKBySort(counts, k); !slices.Equal(got, want) {
				t.Fatalf("trial %d, k=%d: TopK(counts) = %v, sort gives %v", trial, k, got, want)
			}
			if got, want := TopK(forecast, k), topKBySort(forecast, k); !slices.Equal(got, want) {
				t.Fatalf("trial %d, k=%d: TopK(forecast) = %v, sort gives %v", trial, k, got, want)
			}
			if got, want := TopKOverlap(forecast, counts, k), topKOverlapBySort(forecast, counts, k); got != want {
				t.Fatalf("trial %d, k=%d: TopKOverlap = %v, by sort %v", trial, k, got, want)
			}
		}
	}
}

// topKOverlapBySort is TopKOverlap over topKBySort of each side's
// positive entries.
func topKOverlapBySort(pred map[int]float64, actual map[int]int64, k int) float64 {
	if k <= 0 {
		return 0
	}
	posPred := make(map[int]float64)
	for key, v := range pred {
		if v > 0 {
			posPred[key] = v
		}
	}
	posActual := make(map[int]int64)
	for key, v := range actual {
		if v > 0 {
			posActual[key] = v
		}
	}
	predTop, actualTop := topKBySort(posPred, k), topKBySort(posActual, k)
	if len(actualTop) == 0 {
		return 0
	}
	hit := 0
	for _, key := range predTop {
		if slices.Contains(actualTop, key) {
			hit++
		}
	}
	return float64(hit) / float64(min(k, len(actualTop)))
}
