package metrics

import (
	"math"
	"sync/atomic"
)

// LogHistogram bucket geometry: bucket b covers [2^(b+logHistMinExp),
// 2^(b+1+logHistMinExp)) — fixed log-width (one power of two per
// bucket). With minExp = -34 and 64 buckets the range spans ~5.8e-11 to
// ~1.1e9, which covers nanosecond latencies expressed in seconds up to
// multi-gigabyte payloads expressed in bytes; values outside the range
// clamp into the first/last bucket so totals are preserved.
const (
	logHistMinExp  = -34
	logHistBuckets = 64
)

// LogHistogram is a concurrency-safe histogram over fixed log-width
// buckets. The record path is a frexp, two atomic adds and one CAS loop —
// no locks — so it is cheap enough for per-RPC instrumentation.
// Histograms with the same geometry (all LogHistograms share it) are
// mergeable.
type LogHistogram struct {
	counts [logHistBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// logHistIndex maps a value to its bucket.
func logHistIndex(v float64) int {
	if !(v > 0) { // zero, negative and NaN clamp low
		return 0
	}
	// v = f * 2^exp with f in [0.5, 1), so floor(log2 v) = exp - 1.
	_, exp := math.Frexp(v)
	i := exp - 1 - logHistMinExp
	if i < 0 {
		return 0
	}
	if i >= logHistBuckets {
		return logHistBuckets - 1
	}
	return i
}

// BucketUpperBound returns the exclusive upper bound of bucket i; the
// last bucket is unbounded (+Inf).
func BucketUpperBound(i int) float64 {
	if i >= logHistBuckets-1 {
		return math.Inf(1)
	}
	return math.Ldexp(1, i+1+logHistMinExp)
}

// Observe records one value.
//
//lint:hotpath
func (h *LogHistogram) Observe(v float64) {
	h.counts[logHistIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// reset empties the histogram. An Observe racing it may land on either
// side, or split across it.
func (h *LogHistogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Count returns the number of observations recorded.
func (h *LogHistogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *LogHistogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Merge adds o's observations into h. Under concurrent writes to o the
// merged totals are a consistent-enough snapshot for telemetry (each
// bucket is read atomically; cross-bucket skew is bounded by in-flight
// Observes).
func (h *LogHistogram) Merge(o *LogHistogram) {
	for i := range o.counts {
		if n := o.counts[i].Load(); n != 0 {
			h.counts[i].Add(n)
		}
	}
	h.count.Add(o.count.Load())
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + o.Sum())
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// HistogramBucket is one cumulative bucket of a histogram snapshot:
// Count observations were <= UpperBound.
type HistogramBucket struct {
	UpperBound float64
	Count      int64
}

// HistogramSnapshot is a point-in-time copy of a LogHistogram in
// cumulative (Prometheus-style) form. Only buckets whose count grew are
// listed, plus a final +Inf bucket equal to Count.
type HistogramSnapshot struct {
	Count   int64
	Sum     float64
	Buckets []HistogramBucket
}

// Snapshot copies the histogram's current state.
func (h *LogHistogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	var cum int64
	for i := 0; i < logHistBuckets; i++ {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: BucketUpperBound(i), Count: cum})
	}
	s.Count = h.count.Load()
	s.Sum = h.Sum()
	if len(s.Buckets) == 0 || !math.IsInf(s.Buckets[len(s.Buckets)-1].UpperBound, 1) {
		s.Buckets = append(s.Buckets, HistogramBucket{UpperBound: math.Inf(1), Count: cum})
	}
	return s
}
