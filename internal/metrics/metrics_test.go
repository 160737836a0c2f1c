package metrics

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{1, 40},
		{0.5, 25},
		{1.0 / 3.0, 20},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v, want ErrEmpty", err)
	}
	if _, err := Quantile([]float64{1}, 1.5); err == nil {
		t.Error("Quantile(1.5) succeeded, want error")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("Quantile(-0.1) succeeded, want error")
	}
}

func TestCDFAt(t *testing.T) {
	c, err := NewCDF([]float64{1, 2, 2, 3})
	if err != nil {
		t.Fatalf("NewCDF: %v", err)
	}
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2, 0.75},
		{2.5, 0.75},
		{3, 1},
		{99, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestCDFInverse(t *testing.T) {
	c, err := NewCDF([]float64{10, 20, 30, 40})
	if err != nil {
		t.Fatalf("NewCDF: %v", err)
	}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10},
		{0.25, 10},
		{0.26, 20},
		{0.5, 20},
		{0.75, 30},
		{1, 40},
	}
	for _, tt := range tests {
		if got := c.Inverse(tt.p); got != tt.want {
			t.Errorf("Inverse(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestCDFEmpty(t *testing.T) {
	if _, err := NewCDF(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("err = %v, want ErrEmpty", err)
	}
}

// Property: CDF.At is monotone non-decreasing and Inverse is a left
// inverse up to sample resolution.
func TestCDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	f := func(seed uint32) bool {
		n := int(seed%50) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		c, err := NewCDF(xs)
		if err != nil {
			return false
		}
		prev := -1.0
		for x := -10.0; x < 120; x += 3.7 {
			p := c.At(x)
			if p < prev {
				return false
			}
			prev = p
		}
		// Inverse returns an actual sample value; its CDF must reach p.
		for _, p := range []float64{0.1, 0.5, 0.9} {
			v := c.Inverse(p)
			if c.At(v) < p-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestJainFairness(t *testing.T) {
	if got, _ := JainFairness([]float64{5, 5, 5}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("uniform fairness = %v, want 1", got)
	}
	if got, _ := JainFairness([]float64{1, 0, 0, 0}); !almostEqual(got, 0.25, 1e-12) {
		t.Errorf("skewed fairness = %v, want 0.25", got)
	}
	if got, _ := JainFairness([]float64{0, 0}); got != 1 {
		t.Errorf("all-zero fairness = %v, want 1", got)
	}
	if _, err := JainFairness(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty err = %v, want ErrEmpty", err)
	}
}

// Property: Jain fairness is within [1/n, 1] for nonnegative non-zero
// vectors.
func TestJainBoundsProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		nonzero := false
		for i, r := range raw {
			xs[i] = float64(r)
			if r != 0 {
				nonzero = true
			}
		}
		if !nonzero {
			return true
		}
		j, err := JainFairness(xs)
		if err != nil {
			return false
		}
		n := float64(len(xs))
		return j >= 1/n-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Quantile over a sorted slice must agree with direct order statistics at
// the sample points.
func TestQuantileAtSamplePoints(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	for i := 0; i <= 100; i++ {
		q := float64(i) / 100
		got, err := Quantile(xs, q)
		if err != nil {
			t.Fatalf("Quantile: %v", err)
		}
		if !almostEqual(got, sorted[i], 1e-9) {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, sorted[i])
		}
	}
}
