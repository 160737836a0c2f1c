// Package trace generates synthetic MapReduce-style workload traces
// with long-tailed file popularity.
//
// The paper evaluates Aurora with proprietary traces (Yahoo! S3 grid logs
// and Facebook SWIM). Those traces enter the algorithms only as (block,
// access count, time) observations with a long-tail popularity
// distribution — Abad et al. report Yahoo!'s file popularity follows a
// long-tail distribution — so this package substitutes a Zipf-distributed
// synthetic generator with Poisson job arrivals, the paper's mean of 8
// blocks per file, and optional hour-scale popularity churn ("file
// popularity distributions are subject to change over time").
package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"

	"aurora/internal/core"
)

// TicksPerHour is the trace time resolution: one tick is one second.
const TicksPerHour = 3600

// FileID identifies a file in the trace.
type FileID int64

// File is a stored file: an ordered list of fixed-size blocks.
type File struct {
	ID     FileID
	Blocks []core.BlockID
}

// Job is one MapReduce-style job: it arrives at a time and reads every
// block of one file, one map task per block.
type Job struct {
	ID      int64
	Arrival int64 // tick of submission
	File    FileID
	Blocks  []core.BlockID // input blocks (one map task each)
	// TaskDuration is the run time in ticks of one *local* map task;
	// tasks that are not node-local run longer (see internal/sched).
	TaskDuration int64
}

// Trace is a complete generated workload.
type Trace struct {
	Config Config
	Files  []File
	Jobs   []Job // sorted by arrival
}

// Config parameterizes generation.
type Config struct {
	Seed uint64
	// Files is the number of distinct files.
	Files int
	// MeanBlocksPerFile sets the geometric block-count distribution
	// (paper setup: 8).
	MeanBlocksPerFile float64
	// ZipfS > 1 is the popularity skew exponent; production MapReduce
	// file popularity is long-tailed (~1.1-1.5).
	ZipfS float64
	// JobsPerHour is the Poisson arrival rate.
	JobsPerHour float64
	// Hours is the trace length.
	Hours int
	// MeanTaskDurationTicks is the mean local map-task duration
	// (exponentially distributed, floor 1 tick).
	MeanTaskDurationTicks float64
	// ChurnPerHour is the fraction of the file-popularity ranking that
	// reshuffles each hour (0 = static popularity, 1 = full reshuffle).
	ChurnPerHour float64
	// Replication defaults for the generated blocks.
	MinReplicas int
	MinRacks    int
	// Scenario records which named scenario generator produced the
	// trace (empty for the plain Zipf/Poisson generator); see
	// GenerateScenario.
	Scenario string
}

// Errors returned by generation.
var (
	ErrBadConfig = errors.New("trace: invalid config")
)

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Files <= 0:
		return fmt.Errorf("%w: Files = %d", ErrBadConfig, c.Files)
	case c.MeanBlocksPerFile < 1:
		return fmt.Errorf("%w: MeanBlocksPerFile = %v", ErrBadConfig, c.MeanBlocksPerFile)
	case c.ZipfS <= 1:
		return fmt.Errorf("%w: ZipfS = %v (must exceed 1)", ErrBadConfig, c.ZipfS)
	case c.JobsPerHour <= 0:
		return fmt.Errorf("%w: JobsPerHour = %v", ErrBadConfig, c.JobsPerHour)
	case c.Hours <= 0:
		return fmt.Errorf("%w: Hours = %d", ErrBadConfig, c.Hours)
	case c.MeanTaskDurationTicks <= 0:
		return fmt.Errorf("%w: MeanTaskDurationTicks = %v", ErrBadConfig, c.MeanTaskDurationTicks)
	case c.ChurnPerHour < 0 || c.ChurnPerHour > 1:
		return fmt.Errorf("%w: ChurnPerHour = %v", ErrBadConfig, c.ChurnPerHour)
	case c.MinReplicas < 1:
		return fmt.Errorf("%w: MinReplicas = %d", ErrBadConfig, c.MinReplicas)
	case c.MinRacks < 1 || c.MinRacks > c.MinReplicas:
		return fmt.Errorf("%w: MinRacks = %d", ErrBadConfig, c.MinRacks)
	}
	return nil
}

// YahooLike returns the trace configuration mirroring the paper's
// simulation setup (Section VI.A): long-tail popularity, mean 8 blocks
// per file, 3-way replication over 2 racks.
func YahooLike(seed uint64, files, hours int, jobsPerHour float64) Config {
	return Config{
		Seed:                  seed,
		Files:                 files,
		MeanBlocksPerFile:     8,
		ZipfS:                 1.2,
		JobsPerHour:           jobsPerHour,
		Hours:                 hours,
		MeanTaskDurationTicks: 60, // ~1 minute map tasks
		ChurnPerHour:          0.02,
		MinReplicas:           3,
		MinRacks:              2,
	}
}

// SWIMLike returns a configuration mirroring the testbed workload
// (Section VI.B): SWIM's Facebook-derived traces scaled down — burstier
// arrivals, smaller files, shorter tasks.
func SWIMLike(seed uint64, files, hours int, jobsPerHour float64) Config {
	return Config{
		Seed:                  seed,
		Files:                 files,
		MeanBlocksPerFile:     4,
		ZipfS:                 1.4, // Facebook workloads are more skewed
		JobsPerHour:           jobsPerHour,
		Hours:                 hours,
		MeanTaskDurationTicks: 20,
		ChurnPerHour:          0.05,
		MinReplicas:           3,
		MinRacks:              2,
	}
}

// Generate produces a deterministic trace from the configuration.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x5deece66d))

	// Files and blocks. Block counts are geometric with the configured
	// mean: P(n) = (1-p)^(n-1) p with mean 1/p.
	tr := &Trace{Config: cfg}
	p := 1 / cfg.MeanBlocksPerFile
	nextBlock := core.BlockID(1)
	for f := 0; f < cfg.Files; f++ {
		n := 1
		for rng.Float64() > p {
			n++
		}
		blocks := make([]core.BlockID, n)
		for i := range blocks {
			blocks[i] = nextBlock
			nextBlock++
		}
		tr.Files = append(tr.Files, File{ID: FileID(f + 1), Blocks: blocks})
	}

	// rank[i] is the file index currently occupying popularity rank i.
	rank := make([]int, cfg.Files)
	for i := range rank {
		rank[i] = i
	}
	zipf := newZipf(rng, cfg.ZipfS, cfg.Files)

	// Poisson arrivals: exponential inter-arrival gaps, accumulated in
	// continuous time and quantized to ticks only for the arrival stamp
	// so that rates above one job per tick are preserved (multiple jobs
	// may share a tick).
	meanGap := float64(TicksPerHour) / cfg.JobsPerHour
	horizon := int64(cfg.Hours) * TicksPerHour
	nowF := 0.0
	var jobID int64
	hour := int64(0)
	for {
		nowF += rng.ExpFloat64() * meanGap
		now := int64(nowF)
		if now >= horizon {
			break
		}
		// Apply popularity churn at hour boundaries.
		for h := now / TicksPerHour; hour < h; hour++ {
			churn(rng, rank, cfg.ChurnPerHour)
		}
		fileIdx := rank[zipf.Rank()]
		f := tr.Files[fileIdx]
		dur := int64(math.Max(1, rng.ExpFloat64()*cfg.MeanTaskDurationTicks))
		jobID++
		tr.Jobs = append(tr.Jobs, Job{
			ID:           jobID,
			Arrival:      now,
			File:         f.ID,
			Blocks:       f.Blocks,
			TaskDuration: dur,
		})
	}
	return tr, nil
}

// churn swaps a fraction of adjacent-ish ranks so popularity drifts
// without discontinuities.
func churn(rng *rand.Rand, rank []int, fraction float64) {
	swaps := int(float64(len(rank)) * fraction)
	for s := 0; s < swaps; s++ {
		i := rng.IntN(len(rank))
		// Swap with a nearby rank (drift) most of the time; occasionally
		// teleport (a cold file becomes hot).
		var j int
		if rng.Float64() < 0.9 {
			j = i + 1 + rng.IntN(5)
			if j >= len(rank) {
				j = len(rank) - 1
			}
		} else {
			j = rng.IntN(len(rank))
		}
		rank[i], rank[j] = rank[j], rank[i]
	}
}

// BlockSpecs returns one core.BlockSpec per block in the trace, with the
// configured replication requirements and zero popularity (popularity is
// observed at run time by the usage monitor).
func (t *Trace) BlockSpecs() []core.BlockSpec {
	var specs []core.BlockSpec
	for _, f := range t.Files {
		for _, b := range f.Blocks {
			specs = append(specs, core.BlockSpec{
				ID:          b,
				MinReplicas: t.Config.MinReplicas,
				MinRacks:    t.Config.MinRacks,
			})
		}
	}
	return specs
}

// NumBlocks returns the total number of blocks across all files.
func (t *Trace) NumBlocks() int {
	n := 0
	for _, f := range t.Files {
		n += len(f.Blocks)
	}
	return n
}

// AccessCounts returns how many times each block is read over the whole
// trace — the ground-truth popularity the generator induced.
func (t *Trace) AccessCounts() map[core.BlockID]int64 {
	counts := make(map[core.BlockID]int64)
	for _, j := range t.Jobs {
		for _, b := range j.Blocks {
			counts[b]++
		}
	}
	return counts
}

// zipf draws popularity ranks with P(rank k) proportional to 1/(k+1)^s.
// math/rand/v2's Zipf generator requires s > 1, matching Config.ZipfS.
type zipf struct {
	z *rand.Zipf
}

func newZipf(rng *rand.Rand, s float64, n int) *zipf {
	return &zipf{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

// Rank returns a rank in [0, n).
func (z *zipf) Rank() int { return int(z.z.Uint64()) }
