package main

import (
	"math"
	"sort"

	"aurora/internal/metrics"
)

// quantile is metrics.Quantile with an empty sample reading as 0: a
// layer that a workload does not exercise has no spans and reports 0.
func quantile(xs []float64, q float64) float64 {
	v, err := metrics.Quantile(xs, q)
	if err != nil {
		return 0
	}
	return v
}

// tailPercentiles are the candidates tailPercentile chooses from,
// highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a reported percentile
// for it to repeat between runs (choosing-metrics guide, section 1).
const minBeyond = 10

// tailPercentile picks the highest candidate percentile that still has
// at least minBeyond of n samples beyond it; ok is false when even the
// lowest candidate does not.
func tailPercentile(n int) (pct float64, ok bool) {
	for _, p := range tailPercentiles {
		// Rounded: 100-99.9 is not exactly 0.1 in floating point.
		if math.Round(float64(n)*(100-p)*1e6)/1e8 >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (which it does not modify).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencySummary is what one timed phase reports about its per-op
// latencies: the median, the fixed p95 the end-to-end metrics gate, and
// the highest tail percentile the sample count supports.
type latencySummary struct {
	N       int
	P50     float64
	P95     float64
	Tail    float64 // value at TailPct
	TailPct float64 // 0 when N is too small for any tail percentile
	Max     float64
}

func summarize(lat []float64) latencySummary {
	out := latencySummary{N: len(lat), P50: quantile(lat, 0.5), P95: quantile(lat, 0.95), Max: quantile(lat, 1)}
	if pct, ok := tailPercentile(len(lat)); ok {
		out.TailPct = pct
		out.Tail = quantile(lat, pct/100)
	}
	return out
}

// spreadFrac is the interquartile distance of xs as a share of their
// median, the run-to-run spread the benchmark contract checks against a
// metric's bound. With fewer than four values the quartiles are not
// defined and the full range is used instead.
func spreadFrac(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	med := median(xs)
	if med == 0 { //lint:ignore floatcmp exact zero guards the division below
		return 0
	}
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = exclusiveQuartiles(s)
	}
	return math.Abs((hi - lo) / med)
}

// exclusiveQuartiles matches Python's statistics.quantiles(xs, n=4)
// (the default "exclusive" method), which is what the driver computes.
func exclusiveQuartiles(sorted []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		pos := p*float64(len(sorted)+1) - 1
		if pos <= 0 {
			return sorted[0]
		}
		if pos >= float64(len(sorted)-1) {
			return sorted[len(sorted)-1]
		}
		lo := int(math.Floor(pos))
		return sorted[lo] + (sorted[lo+1]-sorted[lo])*(pos-float64(lo))
	}
	return at(0.25), at(0.75)
}
