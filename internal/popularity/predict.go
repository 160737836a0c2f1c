// The forecaster: Seasonal, a periodicity-aware EWMA whose one-phase
// case is the plain EWMA; New, which builds one by name (the -predictor
// flag on aurora-sim/aurora-testbed/aurora-dfs); and the
// prediction-error metrics exported per optimization period.
//
// Forecasts are deterministic: given the same sequence of Observe calls
// Seasonal returns the same Predict map.

package popularity

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// DefaultTopK is the hot-set size used for prediction-error reporting
// (TopKOverlap of predicted vs realized hot sets).
const DefaultTopK = 20

// Predictor names accepted by New and the -predictor CLI flags.
const (
	NameEWMA     = "ewma"
	NameSeasonal = "seasonal"
)

// PredictorOptions tunes the forecaster built by New. Zero values select
// the defaults noted per field.
type PredictorOptions struct {
	// Alpha is the EWMA smoothing factor of every phase and level
	// estimate. Default 0.5.
	Alpha float64
	// Season is the season length in optimization periods for
	// "seasonal" (e.g. 24 hourly periods for a diurnal cycle); "ewma"
	// always has one. Default 24.
	Season int
}

func (o PredictorOptions) withDefaults() PredictorOptions {
	if o.Alpha == 0 {
		o.Alpha = 0.5
	}
	if o.Season == 0 {
		o.Season = 24
	}
	return o
}

// IsReactive reports whether name selects the reactive baseline (no
// forecaster at all: the optimizer sees raw window counts). The paper
// found that sufficient ("we found using the historical value is
// sufficient"); a forecaster that predicts the window it just saw would
// be the same path under another name.
func IsReactive(name string) bool {
	switch strings.TrimSpace(strings.ToLower(name)) {
	case "", "reactive":
		return true
	}
	return false
}

// New builds a forecaster by name: "ewma" is the one-phase Seasonal,
// "seasonal" has opts.Season phases. Reactive names (see IsReactive) are
// rejected — callers should branch on IsReactive first and skip the
// prediction stage entirely for the baseline.
func New[K comparable](name string, opts PredictorOptions) (*Seasonal[K], error) {
	opts = opts.withDefaults()
	switch strings.TrimSpace(strings.ToLower(name)) {
	case NameEWMA:
		return NewSeasonal[K](1, opts.Alpha)
	case NameSeasonal:
		return NewSeasonal[K](opts.Season, opts.Alpha)
	}
	return nil, fmt.Errorf("popularity: unknown predictor %q (want %s, %s or reactive)",
		name, NameEWMA, NameSeasonal)
}

// Seasonal is the forecaster: each key keeps one EWMA estimate per
// phase of a fixed-length season (e.g. 24 hourly phases of a day)
// alongside an overall EWMA level, p <- alpha*observed + (1-alpha)*p.
// Predict forecasts the phase the *next* observation will land on; the
// phase estimate is trusted only once that phase has been seen a minimum
// number of seasons and the key's phase profile shows real spread —
// otherwise it falls back to the level, so aperiodic keys degrade to
// plain EWMA behavior. With one phase there is never a spread to trust
// and the forecast is always the level: that is the "ewma" predictor.
// Keys absent from a snapshot decay toward zero and are dropped below a
// small threshold.
type Seasonal[K comparable] struct {
	season     int
	alpha      float64
	minSeasons int32
	tick       int // number of Observe calls so far
	cells      map[K]*seasonalCell
}

type seasonalCell struct {
	phase []float64 // per-phase EWMA of observed popularity
	seen  []int32   // observations per phase
	level float64   // phase-agnostic EWMA, the fallback forecast
}

// NewSeasonal creates a seasonal predictor with the given season length
// (in periods, >= 1) and EWMA alpha for both phase and level estimates.
func NewSeasonal[K comparable](season int, alpha float64) (*Seasonal[K], error) {
	if season < 1 {
		return nil, fmt.Errorf("popularity: season %d must be >= 1", season)
	}
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("popularity: alpha %v out of (0,1]", alpha)
	}
	return &Seasonal[K]{
		season:     season,
		alpha:      alpha,
		minSeasons: 2,
		cells:      make(map[K]*seasonalCell),
	}, nil
}

// Observe feeds the popularity snapshot for the period that just ended.
// The snapshot is attributed to phase tick%season; tick then advances,
// so Predict targets the next phase.
func (s *Seasonal[K]) Observe(snapshot map[K]int64) {
	p := s.tick % s.season
	for k, c := range s.cells {
		if !s.step(c, float64(snapshot[k]), p) { // zero if absent
			delete(s.cells, k)
		}
	}
	for k, v := range snapshot {
		if _, ok := s.cells[k]; ok {
			continue
		}
		c := &seasonalCell{phase: make([]float64, s.season), seen: make([]int32, s.season)}
		c.seed(float64(v), p)
		s.cells[k] = c
	}
	s.tick++
}

// Forecast returns what Predict would return after Observe(snapshot),
// bit for bit, without changing s: a caller that may yet discard the
// period forecasts first and observes only once it keeps the period.
func (s *Seasonal[K]) Forecast(snapshot map[K]int64) map[K]float64 {
	p, q := s.tick%s.season, (s.tick+1)%s.season
	scratch := &seasonalCell{phase: make([]float64, s.season), seen: make([]int32, s.season)}
	out := make(map[K]float64, len(s.cells)+len(snapshot))
	for k, c := range s.cells {
		copy(scratch.phase, c.phase)
		copy(scratch.seen, c.seen)
		scratch.level = c.level
		if s.step(scratch, float64(snapshot[k]), p) {
			out[k] = s.forecast(scratch, q)
		}
	}
	for k, v := range snapshot {
		if _, ok := out[k]; ok {
			continue
		}
		clear(scratch.phase)
		clear(scratch.seen)
		scratch.seed(float64(v), p)
		out[k] = s.forecast(scratch, q)
	}
	return out
}

// step folds observation obs for phase p into c and reports whether c
// is still worth keeping: a key whose level and every phase estimate
// decayed below a small threshold is dropped.
func (s *Seasonal[K]) step(c *seasonalCell, obs float64, p int) bool {
	const epsilon = 1e-6
	c.level = s.alpha*obs + (1-s.alpha)*c.level
	if c.seen[p] == 0 {
		c.phase[p] = obs
	} else {
		c.phase[p] = s.alpha*obs + (1-s.alpha)*c.phase[p]
	}
	c.seen[p]++
	return c.level >= epsilon || maxFloat(c.phase) >= epsilon
}

// seed sets zeroed c to a key's first observation, v in phase p:
// both level and phase start at the observed value itself. Seeding at
// alpha*v (the recurrence with an implicit prior of 0) underestimates a
// brand-new hot key by 1/alpha for the first ~1/alpha periods — exactly
// the flash-crowd onset prediction exists to catch. The observed value
// is the best available estimate when there is no history at all; the
// recurrence takes over from the second observation.
func (c *seasonalCell) seed(v float64, p int) {
	c.level = v
	c.phase[p] = v
	c.seen[p] = 1
}

// Predict returns the forecast for every known key, for the period the
// next Observe will cover.
func (s *Seasonal[K]) Predict() map[K]float64 {
	q := s.tick % s.season
	out := make(map[K]float64, len(s.cells))
	for k, c := range s.cells {
		out[k] = s.forecast(c, q)
	}
	return out
}

func (s *Seasonal[K]) forecast(c *seasonalCell, q int) float64 {
	if c.seen[q] < s.minSeasons {
		return c.level
	}
	// Trust the phase estimate only if the observed phase profile has
	// genuine spread; a flat profile means no periodicity detected and
	// the level EWMA (less lag, more data) is the better forecast.
	minP, maxP := math.Inf(1), math.Inf(-1)
	var sum float64
	var n int
	for p, cnt := range c.seen {
		if cnt == 0 {
			continue
		}
		v := c.phase[p]
		minP = math.Min(minP, v)
		maxP = math.Max(maxP, v)
		sum += v
		n++
	}
	if n < 2 {
		return c.level
	}
	mean := sum / float64(n)
	if maxP-minP <= 0.25*mean {
		return c.level
	}
	return c.phase[q]
}

// Len reports the number of keys currently tracked. It is the
// observable for the bounded-memory guarantee: keys absent from
// snapshots decay toward zero and are dropped below a small threshold,
// so the cells track the live working set instead of every key ever
// observed.
func (s *Seasonal[K]) Len() int { return len(s.cells) }

func maxFloat(xs []float64) float64 {
	var mx float64
	for _, v := range xs {
		mx = math.Max(mx, v)
	}
	return mx
}

// WeightedAbsError measures one period's prediction quality as
// sum(|pred - actual|) over the union of keys, normalized by the total
// realized popularity: 0 is a perfect forecast, 1 means the error mass
// equals the workload itself. Normalizing by max(1, sum(actual)) keeps
// quiet periods from dividing by zero. Keys are summed in sorted order,
// so the result does not depend on map iteration order down to the last
// bit.
func WeightedAbsError[K cmp.Ordered](pred map[K]float64, actual map[K]int64) float64 {
	keys := make([]K, 0, len(pred)+len(actual))
	for k := range actual {
		keys = append(keys, k)
	}
	for k := range pred {
		if _, ok := actual[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var errSum, total float64
	for _, k := range keys {
		a := float64(actual[k])
		errSum += math.Abs(pred[k] - a)
		total += a
	}
	return errSum / math.Max(1, total)
}

// TopKOverlap measures how well the forecast identified the realized
// hot set: |topK(pred) ∩ topK(actual)| / k, in [0, 1]. Ties break
// deterministically by popularity descending then key ascending. If
// either side has fewer than k nonzero keys its whole set is used, and
// the divisor is the smaller of k and the realized hot-set size, so a
// short hot set can still score 1.0.
func TopKOverlap[K cmp.Ordered](pred map[K]float64, actual map[K]int64, k int) float64 {
	if k <= 0 {
		return 0
	}
	// Positive entries rank before every other, so the positive part of
	// each top k is the top k of the positive entries.
	predTop := TopK(pred, k)
	for len(predTop) > 0 && !(pred[predTop[len(predTop)-1]] > 0) {
		predTop = predTop[:len(predTop)-1]
	}
	actualTop := TopK(actual, k)
	for len(actualTop) > 0 && actual[actualTop[len(actualTop)-1]] <= 0 {
		actualTop = actualTop[:len(actualTop)-1]
	}
	if len(actualTop) == 0 {
		return 0
	}
	var hit int
	for _, key := range predTop {
		if slices.Contains(actualTop, key) {
			hit++
		}
	}
	return float64(hit) / float64(min(k, len(actualTop)))
}

// TopK returns the keys of m's k highest entries, ranked by value
// descending and then key ascending: what sorting every entry and
// keeping the first k gives. A bounded heap of the k best entries seen
// so far makes it O(n log k) and allocates for k entries, not n.
func TopK[K, V cmp.Ordered](m map[K]V, k int) []K {
	if k <= 0 {
		return nil
	}
	type entry struct {
		key K
		v   V
	}
	above := func(a, b entry) bool {
		if a.v != b.v {
			return a.v > b.v
		}
		return a.key < b.key
	}
	// heap[0] is the lowest-ranked entry kept: every parent ranks below
	// its children.
	heap := make([]entry, 0, min(k, len(m)))
	for key, v := range m {
		e := entry{key, v}
		if len(heap) < k {
			heap = append(heap, e)
			for i := len(heap) - 1; i > 0; {
				parent := (i - 1) / 2
				if !above(heap[parent], heap[i]) {
					break
				}
				heap[parent], heap[i] = heap[i], heap[parent]
				i = parent
			}
			continue
		}
		if !above(e, heap[0]) {
			continue
		}
		heap[0] = e
		for i := 0; ; {
			low := 2*i + 1
			if low >= len(heap) {
				break
			}
			if r := low + 1; r < len(heap) && above(heap[low], heap[r]) {
				low = r
			}
			if !above(heap[i], heap[low]) {
				break
			}
			heap[i], heap[low] = heap[low], heap[i]
			i = low
		}
	}
	slices.SortFunc(heap, func(a, b entry) int {
		switch {
		case above(a, b):
			return -1
		case above(b, a):
			return 1
		}
		return 0
	})
	keys := make([]K, len(heap))
	for i, e := range heap {
		keys[i] = e.key
	}
	return keys
}
