// Predictors beyond Historical/EWMA: a periodicity-aware seasonal
// forecaster and a lightweight learned ranker (online linear model over
// recent-window features), plus the registry that selects one by name
// (the -predictor flag on aurora-sim/aurora-testbed/aurora-dfs) and the
// prediction-error metrics exported per optimization period.
//
// All predictors are deterministic: given the same sequence of Observe
// calls they return the same Predict map. The ranker's shared-weight
// update iterates keys in sorted order because float addition is not
// associative — map-order iteration would make the learned weights (and
// therefore every downstream placement) run-dependent.

package popularity

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// DefaultTopK is the hot-set size used for prediction-error reporting
// (TopKOverlap of predicted vs realized hot sets).
const DefaultTopK = 20

// Predictor names accepted by New and the -predictor CLI flags.
const (
	NameHistorical = "historical"
	NameEWMA       = "ewma"
	NameSeasonal   = "seasonal"
	NameRanker     = "ranker"
)

// PredictorOptions tunes the predictor built by New. Zero values select
// the defaults noted per field.
type PredictorOptions struct {
	// Alpha is the EWMA smoothing factor used by "ewma" and by the
	// seasonal predictor's fallback/level estimate. Default 0.5.
	Alpha float64
	// Season is the season length in optimization periods for
	// "seasonal" (e.g. 24 hourly periods for a diurnal cycle).
	// Default 24.
	Season int
	// LearningRate is the NLMS step size for "ranker". Default 0.1.
	LearningRate float64
}

func (o PredictorOptions) withDefaults() PredictorOptions {
	if o.Alpha == 0 {
		o.Alpha = 0.5
	}
	if o.Season == 0 {
		o.Season = 24
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.1
	}
	return o
}

// IsReactive reports whether name selects the reactive baseline (no
// predictor at all: the optimizer sees raw window counts).
func IsReactive(name string) bool {
	switch strings.TrimSpace(strings.ToLower(name)) {
	case "", "reactive", "none", "off":
		return true
	}
	return false
}

// Names lists the predictor names New accepts, for CLI help text.
func Names() []string {
	return []string{NameHistorical, NameEWMA, NameSeasonal, NameRanker}
}

// New builds a predictor by name. Reactive names (see IsReactive) are
// rejected — callers should branch on IsReactive first and skip the
// prediction stage entirely for the baseline.
func New[K cmp.Ordered](name string, opts PredictorOptions) (Predictor[K], error) {
	opts = opts.withDefaults()
	switch strings.TrimSpace(strings.ToLower(name)) {
	case NameHistorical:
		return NewHistorical[K](), nil
	case NameEWMA:
		return NewEWMA[K](opts.Alpha)
	case NameSeasonal:
		return NewSeasonal[K](opts.Season, opts.Alpha)
	case NameRanker:
		return NewRanker[K](opts.LearningRate)
	}
	return nil, fmt.Errorf("popularity: unknown predictor %q (want one of %s, or reactive)",
		name, strings.Join(Names(), "|"))
}

// Seasonal is a periodicity-aware predictor: each key keeps one EWMA
// estimate per phase of a fixed-length season (e.g. 24 hourly phases of
// a day) alongside an overall EWMA level. Predict forecasts the phase
// the *next* observation will land on; the phase estimate is trusted
// only once that phase has been seen a minimum number of seasons and
// the key's phase profile shows real spread — otherwise it falls back
// to the level EWMA, so aperiodic keys degrade to plain EWMA behavior.
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
// (in periods) and EWMA alpha for both phase and level estimates.
func NewSeasonal[K comparable](season int, alpha float64) (*Seasonal[K], error) {
	if season <= 1 {
		return nil, fmt.Errorf("popularity: season %d must be > 1", season)
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

// Observe implements Predictor. The snapshot is attributed to phase
// tick%season; tick then advances, so Predict targets the next phase.
func (s *Seasonal[K]) Observe(snapshot map[K]int64) {
	const epsilon = 1e-6
	p := s.tick % s.season
	for k, c := range s.cells {
		obs := float64(snapshot[k]) // zero if absent
		c.level = s.alpha*obs + (1-s.alpha)*c.level
		if c.seen[p] == 0 {
			c.phase[p] = obs
		} else {
			c.phase[p] = s.alpha*obs + (1-s.alpha)*c.phase[p]
		}
		c.seen[p]++
		if c.level < epsilon && maxFloat(c.phase) < epsilon {
			delete(s.cells, k)
		}
	}
	for k, v := range snapshot {
		if _, ok := s.cells[k]; ok {
			continue
		}
		// First observation seeds both level and phase at the observed
		// value (same rationale as the EWMA cold-start fix).
		c := &seasonalCell{
			phase: make([]float64, s.season),
			seen:  make([]int32, s.season),
			level: float64(v),
		}
		c.phase[p] = float64(v)
		c.seen[p] = 1
		s.cells[k] = c
	}
	s.tick++
}

// Predict implements Predictor: the forecast for the period the next
// Observe will cover.
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

// Len reports the number of keys currently tracked (bounded-memory
// observable, mirroring EWMA.Len).
func (s *Seasonal[K]) Len() int { return len(s.cells) }

// Ranker is a learned predictor: a single linear model shared across
// all keys, trained online over per-key recent-window features. Each
// key keeps its last few window counts; the features are [last, prev,
// delta, mean, max, bias] and the model is updated with normalized LMS
// against each realized observation. Weights start at the Historical
// predictor ([1 0 0 0 0 0]), so the ranker can only move away from
// last-value forecasting when the data rewards it — e.g. learning a
// positive delta weight extrapolates rising flash crowds one period
// earlier than Historical/EWMA can.
//
// K is constrained to cmp.Ordered (not just comparable) because the
// shared-weight SGD must visit keys in sorted order for determinism.
type Ranker[K cmp.Ordered] struct {
	lr    float64
	w     [rankerFeatures]float64
	cells map[K]*rankerCell
}

const (
	rankerHist     = 4 // window counts remembered per key
	rankerFeatures = 6 // last, prev, delta, mean, max, bias
)

type rankerCell struct {
	vals [rankerHist]float64 // most recent first
	n    int                 // observations pushed so far (capped at rankerHist)
}

func (c *rankerCell) features() [rankerFeatures]float64 {
	last := c.vals[0]
	prev := c.vals[1]
	m := min(c.n, rankerHist)
	var sum, mx float64
	for i := 0; i < m; i++ {
		sum += c.vals[i]
		mx = math.Max(mx, c.vals[i])
	}
	var mean float64
	if m > 0 {
		mean = sum / float64(m)
	}
	return [rankerFeatures]float64{last, prev, last - prev, mean, mx, 1}
}

func (c *rankerCell) push(v float64) {
	copy(c.vals[1:], c.vals[:rankerHist-1])
	c.vals[0] = v
	if c.n < rankerHist {
		c.n++
	}
}

// NewRanker creates a ranker with the given NLMS learning rate in
// (0, 1].
func NewRanker[K cmp.Ordered](lr float64) (*Ranker[K], error) {
	if lr <= 0 || lr > 1 {
		return nil, fmt.Errorf("popularity: learning rate %v out of (0,1]", lr)
	}
	r := &Ranker[K]{lr: lr, cells: make(map[K]*rankerCell)}
	r.w[0] = 1 // start as the Historical predictor
	return r, nil
}

// Observe implements Predictor: trains the shared model against the
// realized snapshot, then folds the snapshot into per-key history.
func (r *Ranker[K]) Observe(snapshot map[K]int64) {
	keys := make([]K, 0, len(r.cells)+len(snapshot))
	for k := range r.cells {
		keys = append(keys, k)
	}
	for k := range snapshot {
		if _, ok := r.cells[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		obs := float64(snapshot[k])
		c, ok := r.cells[k]
		if !ok {
			c = &rankerCell{}
			r.cells[k] = c
		} else if c.n > 0 {
			// Train on the forecast the pre-update history implied for
			// this period vs what actually happened. Normalized LMS
			// keeps the step scale-free across hot and cold keys.
			phi := c.features()
			var pred, norm float64
			for i, f := range phi {
				pred += r.w[i] * f
				norm += f * f
			}
			err := pred - obs
			step := r.lr * err / (1e-9 + norm)
			for i, f := range phi {
				r.w[i] -= step * f
			}
		}
		c.push(obs)
		if c.maxAbs() < 1e-6 {
			delete(r.cells, k)
		}
	}
}

func (c *rankerCell) maxAbs() float64 {
	var mx float64
	for _, v := range c.vals {
		mx = math.Max(mx, math.Abs(v))
	}
	return mx
}

// Predict implements Predictor: pure application of the current model
// to each key's history, clamped at zero (popularity is a count).
func (r *Ranker[K]) Predict() map[K]float64 {
	out := make(map[K]float64, len(r.cells))
	for k, c := range r.cells {
		phi := c.features()
		var pred float64
		for i, f := range phi {
			pred += r.w[i] * f
		}
		out[k] = math.Max(0, pred)
	}
	return out
}

// Len reports the number of keys currently tracked.
func (r *Ranker[K]) Len() int { return len(r.cells) }

// Weights returns a copy of the shared model weights, for tests and
// debugging.
func (r *Ranker[K]) Weights() []float64 {
	w := make([]float64, rankerFeatures)
	copy(w, r.w[:])
	return w
}

var (
	_ Predictor[int] = (*Seasonal[int])(nil)
	_ Predictor[int] = (*Ranker[int])(nil)
)

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
// like the ranker's training pass, so the result does not depend on map
// iteration order down to the last bit.
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
	top := func(scores map[K]float64) map[K]bool {
		type kv struct {
			key K
			v   float64
		}
		rows := make([]kv, 0, len(scores))
		for key, v := range scores {
			if v > 0 {
				rows = append(rows, kv{key, v})
			}
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].v != rows[j].v {
				return rows[i].v > rows[j].v
			}
			return rows[i].key < rows[j].key
		})
		if len(rows) > k {
			rows = rows[:k]
		}
		set := make(map[K]bool, len(rows))
		for _, r := range rows {
			set[r.key] = true
		}
		return set
	}
	af := make(map[K]float64, len(actual))
	for key, v := range actual {
		af[key] = float64(v)
	}
	predTop, actualTop := top(pred), top(af)
	if len(actualTop) == 0 {
		return 0
	}
	var hit int
	for key := range predTop {
		if actualTop[key] {
			hit++
		}
	}
	return float64(hit) / float64(min(k, len(actualTop)))
}
