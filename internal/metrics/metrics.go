// Package metrics provides the small statistics toolkit used by the
// experiments harness and the benchmarks — quantiles, empirical CDFs and
// Jain's fairness index — beside the live instruments (counters, gauges,
// log-bucket histograms and the registry that names them).
//
// Everything here is deterministic and allocation-conscious; the
// experiment harness calls these on every epoch of multi-day simulated
// workloads.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty data.
var ErrEmpty = errors.New("metrics: empty sample")

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("metrics: quantile %v out of [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs. xs is copied, not retained.
func NewCDF(xs []float64) (*CDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}, nil
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	// index of first element > x
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// Inverse returns the smallest sample value v with P(X <= v) >= p.
func (c *CDF) Inverse(p float64) float64 {
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	i := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return c.sorted[i]
}

// N reports the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// JainFairness returns Jain's fairness index (Σx)² / (n·Σx²) of the load
// vector: 1.0 is perfectly balanced, 1/n is maximally skewed. An all-zero
// vector is defined as perfectly fair (1.0).
func JainFairness(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1.0, nil
	}
	return sum * sum / (float64(len(xs)) * sumSq), nil
}
