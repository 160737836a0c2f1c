package trace

import (
	"errors"
	"math"
	"sort"
	"testing"
)

func validConfig() Config {
	return YahooLike(42, 100, 4, 200)
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"valid", func(*Config) {}, true},
		{"zero files", func(c *Config) { c.Files = 0 }, false},
		{"blocks per file below 1", func(c *Config) { c.MeanBlocksPerFile = 0.5 }, false},
		{"zipf not above 1", func(c *Config) { c.ZipfS = 1.0 }, false},
		{"zero rate", func(c *Config) { c.JobsPerHour = 0 }, false},
		{"zero hours", func(c *Config) { c.Hours = 0 }, false},
		{"zero task duration", func(c *Config) { c.MeanTaskDurationTicks = 0 }, false},
		{"churn above 1", func(c *Config) { c.ChurnPerHour = 1.5 }, false},
		{"zero replicas", func(c *Config) { c.MinReplicas = 0 }, false},
		{"racks above replicas", func(c *Config) { c.MinRacks = 5 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := validConfig()
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
			if err != nil && !errors.Is(err, ErrBadConfig) {
				t.Errorf("error %v does not wrap ErrBadConfig", err)
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := validConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(a.Jobs) != len(b.Jobs) || len(a.Files) != len(b.Files) {
		t.Fatalf("non-deterministic shape: %d/%d jobs, %d/%d files",
			len(a.Jobs), len(b.Jobs), len(a.Files), len(b.Files))
	}
	for i := range a.Jobs {
		if a.Jobs[i].ID != b.Jobs[i].ID || a.Jobs[i].Arrival != b.Jobs[i].Arrival || a.Jobs[i].File != b.Jobs[i].File {
			t.Fatalf("job %d differs between runs", i)
		}
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := validConfig()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(tr.Files) != cfg.Files {
		t.Errorf("files = %d, want %d", len(tr.Files), cfg.Files)
	}
	// Expected jobs ≈ rate*hours; allow generous tolerance.
	want := cfg.JobsPerHour * float64(cfg.Hours)
	if got := float64(len(tr.Jobs)); math.Abs(got-want) > want/2 {
		t.Errorf("jobs = %v, want about %v", got, want)
	}
	// Jobs sorted by arrival within the horizon.
	horizon := int64(cfg.Hours) * TicksPerHour
	if !sort.SliceIsSorted(tr.Jobs, func(i, j int) bool { return tr.Jobs[i].Arrival < tr.Jobs[j].Arrival }) {
		t.Error("jobs not sorted by arrival")
	}
	for _, j := range tr.Jobs {
		if j.Arrival < 0 || j.Arrival >= horizon {
			t.Fatalf("job %d arrival %d outside [0, %d)", j.ID, j.Arrival, horizon)
		}
		if len(j.Blocks) == 0 {
			t.Fatalf("job %d reads no blocks", j.ID)
		}
		if j.TaskDuration < 1 {
			t.Fatalf("job %d task duration %d < 1", j.ID, j.TaskDuration)
		}
	}
	// Mean blocks per file near the configured mean.
	mean := float64(tr.NumBlocks()) / float64(len(tr.Files))
	if math.Abs(mean-cfg.MeanBlocksPerFile) > cfg.MeanBlocksPerFile/2 {
		t.Errorf("mean blocks/file = %v, want about %v", mean, cfg.MeanBlocksPerFile)
	}
}

func TestGenerateLongTail(t *testing.T) {
	cfg := YahooLike(7, 500, 20, 500)
	cfg.ChurnPerHour = 0 // static ranks for a clean skew measurement
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// Count accesses per file; the top 10% of files should absorb well
	// over half the accesses under Zipf(1.2).
	counts := make(map[FileID]int)
	for _, j := range tr.Jobs {
		counts[j.File]++
	}
	var all []int
	for _, c := range counts {
		all = append(all, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(all)))
	total, top := 0, 0
	for i, c := range all {
		total += c
		if i < cfg.Files/10 {
			top += c
		}
	}
	if total == 0 {
		t.Fatal("no accesses generated")
	}
	if frac := float64(top) / float64(total); frac < 0.5 {
		t.Errorf("top-decile access share = %v, want >= 0.5 (long tail)", frac)
	}
}

func TestChurnReshufflesRanks(t *testing.T) {
	cfgStatic := validConfig()
	cfgStatic.ChurnPerHour = 0
	cfgChurn := validConfig()
	cfgChurn.ChurnPerHour = 0.5
	cfgChurn.Hours = 24
	cfgStatic.Hours = 24

	tr, err := Generate(cfgChurn)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	// With churn, the hottest file of the first hour should not absorb
	// all accesses across the whole day. Measure: hottest file's share
	// per hour should shift.
	hot := make(map[int64]FileID)
	counts := make(map[int64]map[FileID]int)
	for _, j := range tr.Jobs {
		h := j.Arrival / TicksPerHour
		if counts[h] == nil {
			counts[h] = make(map[FileID]int)
		}
		counts[h][j.File]++
	}
	for h, m := range counts {
		best, bestC := FileID(0), 0
		for f, c := range m {
			if c > bestC {
				best, bestC = f, c
			}
		}
		hot[h] = best
	}
	distinct := make(map[FileID]bool)
	for _, f := range hot {
		distinct[f] = true
	}
	if len(distinct) < 2 {
		t.Errorf("hottest file never changed across 24 churned hours")
	}
}

func TestBlockSpecs(t *testing.T) {
	tr, err := Generate(validConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	specs := tr.BlockSpecs()
	if len(specs) != tr.NumBlocks() {
		t.Fatalf("specs = %d, want %d", len(specs), tr.NumBlocks())
	}
	seen := make(map[int64]bool)
	for _, s := range specs {
		if s.MinReplicas != 3 || s.MinRacks != 2 {
			t.Fatalf("spec %d has k=%d rho=%d, want 3/2", s.ID, s.MinReplicas, s.MinRacks)
		}
		if seen[int64(s.ID)] {
			t.Fatalf("duplicate block %d in specs", s.ID)
		}
		seen[int64(s.ID)] = true
	}
}

func TestAccessCounts(t *testing.T) {
	tr, err := Generate(validConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	counts := tr.AccessCounts()
	var total int64
	for _, c := range counts {
		total += c
	}
	var want int64
	for _, j := range tr.Jobs {
		want += int64(len(j.Blocks))
	}
	if total != want {
		t.Errorf("total accesses = %d, want %d", total, want)
	}
}

func TestSWIMLikePreset(t *testing.T) {
	cfg := SWIMLike(1, 50, 2, 100)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("SWIMLike config invalid: %v", err)
	}
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if len(tr.Jobs) == 0 {
		t.Error("SWIM-like trace has no jobs")
	}
}

// TestArrivalRateFidelity guards the Poisson generator against the
// historical bug where flooring inter-arrival gaps at one tick silently
// capped the rate at 3600 jobs/hour.
func TestArrivalRateFidelity(t *testing.T) {
	for _, rate := range []float64{100, 3000, 20000} {
		cfg := YahooLike(5, 50, 2, rate)
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		want := rate * float64(cfg.Hours)
		got := float64(len(tr.Jobs))
		// Poisson stddev is sqrt(want); allow 5 sigma.
		slack := 5 * math.Sqrt(want)
		if math.Abs(got-want) > slack {
			t.Errorf("rate %v: %v jobs, want %v ± %v", rate, got, want, slack)
		}
	}
}

// TestSameTickArrivals verifies that rates above one job per tick
// produce multiple arrivals sharing a tick rather than dropping jobs.
func TestSameTickArrivals(t *testing.T) {
	cfg := YahooLike(6, 20, 1, 20000)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	shared := 0
	for i := 1; i < len(tr.Jobs); i++ {
		if tr.Jobs[i].Arrival == tr.Jobs[i-1].Arrival {
			shared++
		}
		if tr.Jobs[i].Arrival < tr.Jobs[i-1].Arrival {
			t.Fatalf("arrivals not monotone at %d", i)
		}
	}
	if shared == 0 {
		t.Error("no same-tick arrivals at 20000 jobs/hour")
	}
}
