package trace

// Named, seeded scenario generators for the predictor-vs-reactive
// evaluation matrix: diurnal cycle, recurring flash
// crowd, batch-vs-interactive mix, region-skewed access and
// rolling-restart churn. Each scenario composes independent workload
// streams with time-varying arrival rates; non-homogeneous Poisson
// arrivals are drawn by thinning against the stream's peak rate, and
// every stream owns its own PCG generator keyed by (seed, stream index),
// so traces are byte-identical across runs and adding a stream never
// perturbs another stream's draws. Scenario output is consumed by
// seed-replayable experiments, hence the determinism directive.
//
//lint:deterministic

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"aurora/internal/core"
)

// Scenario names accepted by GenerateScenario.
const (
	ScenarioDiurnal      = "diurnal"
	ScenarioFlashCrowd   = "flashcrowd"
	ScenarioBatchMix     = "batchmix"
	ScenarioRegionSkew   = "regionskew"
	ScenarioRestartChurn = "restartchurn"
)

// ScenarioNames lists the scenario generators in canonical order.
func ScenarioNames() []string {
	return []string{
		ScenarioDiurnal, ScenarioFlashCrowd, ScenarioBatchMix,
		ScenarioRegionSkew, ScenarioRestartChurn,
	}
}

// ScenarioConfig parameterizes a named scenario.
type ScenarioConfig struct {
	Seed uint64
	// Files is the number of distinct files (split into scenario-specific
	// groups).
	Files int
	// Hours is the trace length; runs should span at least three periods
	// so seasonal predictors have history to learn from.
	Hours int
	// JobsPerHour is the time-averaged total arrival rate.
	JobsPerHour float64
	// PeriodHours is the scenario's repeating period (the "day" of the
	// diurnal cycle, the recurrence interval of the flash crowd).
	// Default 24.
	PeriodHours int
}

func (c ScenarioConfig) withDefaults() ScenarioConfig {
	if c.PeriodHours == 0 {
		c.PeriodHours = 24
	}
	return c
}

// Validate checks the configuration.
func (c ScenarioConfig) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Files < 6:
		return fmt.Errorf("%w: scenario Files = %d (need >= 6 for group splits)", ErrBadConfig, c.Files)
	case c.Hours <= 0:
		return fmt.Errorf("%w: scenario Hours = %d", ErrBadConfig, c.Hours)
	case c.JobsPerHour <= 0:
		return fmt.Errorf("%w: scenario JobsPerHour = %v", ErrBadConfig, c.JobsPerHour)
	case c.PeriodHours < 2:
		return fmt.Errorf("%w: scenario PeriodHours = %d", ErrBadConfig, c.PeriodHours)
	}
	return nil
}

// stream is one component workload of a scenario: a non-homogeneous
// Poisson arrival process over a set of files.
type stream struct {
	// rate is the arrival intensity in jobs/hour at the given tick; it
	// must never exceed peak.
	rate func(tick int64) float64
	peak float64
	// pick chooses the file index for one job.
	pick func(rng *rand.Rand, tick int64) int
	// meanDur is the mean local task duration in ticks.
	meanDur float64
}

// GenerateScenario produces a deterministic trace for a named scenario.
func GenerateScenario(name string, cfg ScenarioConfig) (*Trace, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var streams []stream
	var err error
	switch name {
	case ScenarioDiurnal:
		streams, err = diurnalStreams(cfg)
	case ScenarioFlashCrowd:
		streams, err = flashCrowdStreams(cfg)
	case ScenarioBatchMix:
		streams, err = batchMixStreams(cfg)
	case ScenarioRegionSkew:
		streams, err = regionSkewStreams(cfg)
	case ScenarioRestartChurn:
		streams, err = restartChurnStreams(cfg)
	default:
		return nil, fmt.Errorf("%w: unknown scenario %q (want one of %v)", ErrBadConfig, name, ScenarioNames())
	}
	if err != nil {
		return nil, err
	}
	return assemble(name, cfg, streams)
}

// assemble lays out the files, runs every stream's thinned Poisson
// process, and merges the arrivals into one job log sorted by
// (arrival, stream, per-stream sequence) with dense job IDs.
func assemble(name string, cfg ScenarioConfig, streams []stream) (*Trace, error) {
	tr := &Trace{Config: Config{
		Seed:                  cfg.Seed,
		Files:                 cfg.Files,
		MeanBlocksPerFile:     8,
		ZipfS:                 1.2,
		JobsPerHour:           cfg.JobsPerHour,
		Hours:                 cfg.Hours,
		MeanTaskDurationTicks: 60,
		MinReplicas:           3,
		MinRacks:              2,
		Scenario:              name,
	}}

	// File layout uses its own generator so stream count never shifts it.
	frng := rand.New(rand.NewPCG(cfg.Seed, 0xf11e5))
	p := 1 / tr.Config.MeanBlocksPerFile
	nextBlock := core.BlockID(1)
	for f := 0; f < cfg.Files; f++ {
		n := 1
		for frng.Float64() > p {
			n++
		}
		blocks := make([]core.BlockID, n)
		for i := range blocks {
			blocks[i] = nextBlock
			nextBlock++
		}
		tr.Files = append(tr.Files, File{ID: FileID(f + 1), Blocks: blocks})
	}

	type arrival struct {
		tick   int64
		stream int
		seq    int64
		file   int
		dur    int64
	}
	horizon := int64(cfg.Hours) * TicksPerHour
	var all []arrival
	for si, st := range streams {
		if st.peak <= 0 {
			continue
		}
		rng := rand.New(rand.NewPCG(cfg.Seed, 0x5712ea3+uint64(si)))
		meanGap := float64(TicksPerHour) / st.peak
		nowF := 0.0
		var seq int64
		for {
			nowF += rng.ExpFloat64() * meanGap
			now := int64(nowF)
			if now >= horizon {
				break
			}
			// Thinning: accept with probability rate(t)/peak. The
			// uniform draw happens unconditionally so acceptance at one
			// tick never changes the draws at later ticks.
			u := rng.Float64()
			r := st.rate(now)
			if u*st.peak >= r {
				continue
			}
			dur := int64(math.Max(1, rng.ExpFloat64()*st.meanDur))
			seq++
			all = append(all, arrival{
				tick: now, stream: si, seq: seq,
				file: st.pick(rng, now), dur: dur,
			})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].tick != all[j].tick {
			return all[i].tick < all[j].tick
		}
		if all[i].stream != all[j].stream {
			return all[i].stream < all[j].stream
		}
		return all[i].seq < all[j].seq
	})
	for i, a := range all {
		f := tr.Files[a.file]
		tr.Jobs = append(tr.Jobs, Job{
			ID:           int64(i + 1),
			Arrival:      a.tick,
			File:         f.ID,
			Blocks:       f.Blocks,
			TaskDuration: a.dur,
		})
	}
	return tr, nil
}

// zipfPick builds a file picker drawing from [lo, hi) with long-tail
// rank skew.
func zipfPick(seed uint64, salt uint64, s float64, lo, hi int) func(*rand.Rand, int64) int {
	// rand.Zipf is stateless given its source, but each picker keeps its
	// own so pickers never interleave draws.
	zrng := rand.New(rand.NewPCG(seed, 0x21bf^salt))
	z := rand.NewZipf(zrng, s, 1, uint64(hi-lo-1))
	return func(*rand.Rand, int64) int { return lo + int(z.Uint64()) }
}

// diurnalStreams models a two-population day/night cycle: "daytime"
// files are ~6x hotter during the first half of each period, "night"
// files during the second half, with total load constant. The square
// wave's sharp transitions are where a reactive window is maximally
// wrong and a phase-aware forecast maximally right.
func diurnalStreams(cfg ScenarioConfig) ([]stream, error) {
	period := int64(cfg.PeriodHours) * TicksPerHour
	half := period / 2
	mid := cfg.Files / 2
	const ratio = 6.0
	hi := cfg.JobsPerHour * ratio / (ratio + 1)
	lo := cfg.JobsPerHour * 1 / (ratio + 1)
	dayActive := func(tick int64) bool { return mod(tick, period) < half }
	return []stream{
		{
			rate: func(t int64) float64 {
				if dayActive(t) {
					return hi
				}
				return lo
			},
			peak:    hi,
			pick:    zipfPick(cfg.Seed, 1, 1.2, 0, mid),
			meanDur: 60,
		},
		{
			rate: func(t int64) float64 {
				if dayActive(t) {
					return lo
				}
				return hi
			},
			peak:    hi,
			pick:    zipfPick(cfg.Seed, 2, 1.2, mid, cfg.Files),
			meanDur: 60,
		},
	}, nil
}

// flashCrowdStreams models a recurring flash crowd: steady long-tail
// background plus one viral file hammered at 3x the background rate for
// a two-hour burst at the same phase of every period (think a daily
// batch job or a scheduled content drop re-reading one dataset).
func flashCrowdStreams(cfg ScenarioConfig) ([]stream, error) {
	period := int64(cfg.PeriodHours) * TicksPerHour
	burstStart := period / 2
	burstLen := min64(2*TicksPerHour, period/4)
	// The viral file is fixed per seed, outside the background's hottest
	// ranks so the burst is a genuine popularity inversion.
	vrng := rand.New(rand.NewPCG(cfg.Seed, 0xb1a5))
	viral := cfg.Files/2 + vrng.IntN(cfg.Files/2)
	base := cfg.JobsPerHour * 0.7
	burst := cfg.JobsPerHour * 3
	return []stream{
		{
			rate:    func(int64) float64 { return base },
			peak:    base,
			pick:    zipfPick(cfg.Seed, 3, 1.2, 0, cfg.Files),
			meanDur: 60,
		},
		{
			rate: func(t int64) float64 {
				ph := mod(t, period)
				if ph >= burstStart && ph < burstStart+burstLen {
					return burst
				}
				return 0
			},
			peak:    burst,
			pick:    func(*rand.Rand, int64) int { return viral },
			meanDur: 60,
		},
	}, nil
}

// batchMixStreams models interactive traffic (short tasks over the
// general population during the "day") sharing the cluster with a
// nightly batch window (long tasks over a dedicated large-file group in
// the last quarter of each period).
func batchMixStreams(cfg ScenarioConfig) ([]stream, error) {
	period := int64(cfg.PeriodHours) * TicksPerHour
	batchStart := period * 3 / 4
	batchFiles := cfg.Files / 4
	inter := cfg.JobsPerHour * 0.75
	batch := cfg.JobsPerHour * 2
	return []stream{
		{
			rate: func(t int64) float64 {
				if mod(t, period) < batchStart {
					return inter
				}
				return inter / 3 // interactive load tails off at night
			},
			peak:    inter,
			pick:    zipfPick(cfg.Seed, 4, 1.3, batchFiles, cfg.Files),
			meanDur: 20,
		},
		{
			rate: func(t int64) float64 {
				if mod(t, period) >= batchStart {
					return batch
				}
				return 0
			},
			peak:    batch,
			pick:    zipfPick(cfg.Seed, 5, 1.1, 0, batchFiles),
			meanDur: 300,
		},
	}, nil
}

// regionSkewStreams models region-skewed access: the file population is
// split into three regions and the active region rotates through the
// period (follow-the-sun), taking 70% of the traffic while 30% stays
// globally long-tailed.
func regionSkewStreams(cfg ScenarioConfig) ([]stream, error) {
	period := int64(cfg.PeriodHours) * TicksPerHour
	third := period / 3
	regionSize := cfg.Files / 3
	active := cfg.JobsPerHour * 0.7
	global := cfg.JobsPerHour * 0.3
	streams := []stream{{
		rate:    func(int64) float64 { return global },
		peak:    global,
		pick:    zipfPick(cfg.Seed, 6, 1.2, 0, cfg.Files),
		meanDur: 60,
	}}
	for r := 0; r < 3; r++ {
		r := r
		lo := r * regionSize
		hi := lo + regionSize
		if r == 2 {
			hi = cfg.Files
		}
		streams = append(streams, stream{
			rate: func(t int64) float64 {
				if int(mod(t, period)/third)%3 == r {
					return active
				}
				return 0
			},
			peak:    active,
			pick:    zipfPick(cfg.Seed, 7+uint64(r), 1.3, lo, hi),
			meanDur: 60,
		})
	}
	return streams, nil
}

// restartChurnStreams models rolling-restart churn: steady background
// traffic plus an hourly re-read burst that cycles through file groups
// (group = hour mod G), the access signature of a fleet restarting in
// waves and re-reading its working set on boot.
func restartChurnStreams(cfg ScenarioConfig) ([]stream, error) {
	const groups = 4
	groupSize := cfg.Files / groups
	base := cfg.JobsPerHour * 0.7
	burst := cfg.JobsPerHour * 2.4
	burstLen := int64(TicksPerHour / 4)
	pickers := make([]func(*rand.Rand, int64) int, groups)
	for g := 0; g < groups; g++ {
		lo := g * groupSize
		hi := lo + groupSize
		if g == groups-1 {
			hi = cfg.Files
		}
		pickers[g] = zipfPick(cfg.Seed, 16+uint64(g), 1.1, lo, hi)
	}
	return []stream{
		{
			rate:    func(int64) float64 { return base },
			peak:    base,
			pick:    zipfPick(cfg.Seed, 15, 1.2, 0, cfg.Files),
			meanDur: 60,
		},
		{
			rate: func(t int64) float64 {
				if mod(t, TicksPerHour) < burstLen {
					return burst
				}
				return 0
			},
			peak: burst,
			pick: func(rng *rand.Rand, t int64) int {
				g := int(mod(t/TicksPerHour, groups))
				return pickers[g](rng, t)
			},
			meanDur: 30,
		},
	}, nil
}

// mod is the non-negative remainder (ticks can be negative in tests).
func mod(a, m int64) int64 {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
