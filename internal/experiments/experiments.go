// Package experiments regenerates the paper's evaluation figures. Each
// FigN function reproduces the corresponding figure of Section VI with
// the same systems, parameter sweeps and reported series; the absolute
// numbers differ from the paper (different traces and substrate) but the
// comparative shape is the reproduction target.
//
//	Fig 3 — Case 1 (BP-Node):      HDFS vs Aurora ε-sweep, no rack constraint.
//	Fig 4 — Case 2 (BP-Rack):      HDFS vs Aurora ε-sweep, ρ = 2.
//	Fig 5 — Case 3 (BP-Replicate): Scarlett vs Aurora ε-sweep with budget β.
//
// Each figure's three panels map to SweepRow fields: (a) remote tasks per
// hour, (b) the machine-load CDF, (c) block movements per machine per
// hour.
//
// Sweeps may run rows in parallel (Setup.Workers); results stay
// deterministic because each row owns its slot and its own seeded RNGs.
//
//lint:deterministic
package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"aurora/internal/baseline"
	"aurora/internal/core"
	"aurora/internal/metrics"
	"aurora/internal/par"
	"aurora/internal/sim"
	"aurora/internal/topology"
	"aurora/internal/trace"
)

// CompressionFactor is the block-compression ratio the paper cites (27x)
// when discussing movement overhead; panel (c) reports both raw and
// compressed-equivalent movement rates.
const CompressionFactor = 27.0

// Setup describes one simulated experiment campaign. Zero fields take
// the defaults of DefaultSetup.
type Setup struct {
	Seed            uint64
	Racks           int
	MachinesPerRack int
	// CapacityPerMachine is in blocks.
	CapacityPerMachine int
	SlotsPerMachine    int
	Files              int
	Hours              int
	JobsPerHour        float64
	// Epsilons is the admissibility sweep (paper: 0.1 .. 0.9).
	Epsilons []float64
	// K bounds Algorithm 3 iterations and per-epoch replica copies
	// (paper: 20000).
	K int
	// BudgetExtraBlocks is the additional replica budget beyond the
	// 3x minimum for Figure 5 (paper: 70000).
	BudgetExtraBlocks int
	// MaxSearchIterations caps the per-epoch local search (a runtime
	// guard; 0 = unbounded).
	MaxSearchIterations int
	// Workers bounds how many sweep rows run concurrently (0 = one per
	// CPU, 1 = serial). Rows are independent: each constructs its own
	// policy and simulator over the shared read-only cluster and trace,
	// and writes into its own result slot, so a parallel sweep is
	// byte-identical to a serial one.
	Workers int
	// Shards partitions each of the Aurora policy's periodic
	// optimizations into hash shards (values below 2 run the classic
	// unsharded optimizer). Baseline policies are unaffected.
	Shards int
	// Predictor selects the popularity forecaster every row runs under
	// ("ewma" or "seasonal", see popularity.New); empty/reactive keeps
	// raw window counts.
	Predictor string
}

// auroraPolicy builds the sweep's Aurora policy, sharded when the setup
// asks for partitioning.
func (s Setup) auroraPolicy(opts core.OptimizerOptions) sim.Policy {
	return &sim.AuroraPolicy{Shards: s.Shards, Opts: opts}
}

// DefaultSetup returns a laptop-scale rendition of the paper's setup
// (the paper's full 845-machine scale works too — pass PaperSetup).
func DefaultSetup(seed uint64) Setup {
	return Setup{
		Seed:               seed,
		Racks:              4,
		MachinesPerRack:    10,
		CapacityPerMachine: 600,
		SlotsPerMachine:    8,
		Files:              150,
		Hours:              6,
		// ~2600 jobs/h x ~8 blocks x ~60-120s tasks on 320 slots puts
		// the cluster around 85-90% utilization, where hot-block holders
		// saturate and locality contention appears (the regime the
		// paper studies).
		JobsPerHour:         2600,
		Epsilons:            []float64{0.1, 0.3, 0.6, 0.7, 0.8, 0.9},
		K:                   20000,
		BudgetExtraBlocks:   1200,
		MaxSearchIterations: 50000,
	}
}

// PaperSetup returns the paper's simulation scale: 845 machines in 13
// racks of 65, 14 task slots each, K = 20000, beta = minimum + 70000
// extra blocks, 2-hour window, 1-hour epochs. The arrival rate puts the
// 11830 task slots around 85% utilization — the contention regime the
// paper's remote-task counts come from; one figure takes minutes of
// wall-clock at this scale.
func PaperSetup(seed uint64) Setup {
	return Setup{
		Seed:                seed,
		Racks:               13,
		MachinesPerRack:     65,
		CapacityPerMachine:  400,
		SlotsPerMachine:     14,
		Files:               2000,
		Hours:               8,
		JobsPerHour:         70000,
		Epsilons:            []float64{0.1, 0.3, 0.6, 0.7, 0.8, 0.9},
		K:                   20000,
		BudgetExtraBlocks:   70000,
		MaxSearchIterations: 200000,
	}
}

// SweepRow is one system (or one ε value) in a figure: the three panels
// of every evaluation figure in the paper.
type SweepRow struct {
	System  string
	Epsilon float64 // NaN-free: 0 for non-Aurora rows
	// Panel (a): average number of remote (non-node-local) tasks per hour.
	RemoteTasksPerHour float64
	RemoteFraction     float64
	// Panel (b): machine-load CDF (tasks executed per machine).
	LoadCDF *metrics.CDF
	LoadP50 float64
	LoadP90 float64
	LoadMax float64
	Jain    float64
	// Panel (c): block movements per machine per hour, raw and with the
	// paper's 27x compression applied.
	MovementsPerMachineHour  float64
	CompressedPerMachineHour float64
	// Bookkeeping.
	Migrations   int64
	Replications int64
	TotalTasks   int64
}

// Figure is a fully rendered experiment.
type Figure struct {
	Name  string
	Notes string
	Rows  []SweepRow
}

// ErrBadSetup reports an invalid experiment setup.
var ErrBadSetup = errors.New("experiments: invalid setup")

func (s Setup) validate() error {
	if s.Racks <= 0 || s.MachinesPerRack <= 0 || s.CapacityPerMachine <= 0 ||
		s.SlotsPerMachine <= 0 || s.Files <= 0 || s.Hours <= 0 || s.JobsPerHour <= 0 {
		return fmt.Errorf("%w: %+v", ErrBadSetup, s)
	}
	if len(s.Epsilons) == 0 {
		return fmt.Errorf("%w: empty epsilon sweep", ErrBadSetup)
	}
	return nil
}

func (s Setup) cluster() (*topology.Cluster, error) {
	return topology.Uniform(s.Racks, s.MachinesPerRack, s.CapacityPerMachine, s.SlotsPerMachine)
}

func (s Setup) trace(minRacks int) (*trace.Trace, error) {
	cfg := trace.YahooLike(s.Seed, s.Files, s.Hours, s.JobsPerHour)
	cfg.MinRacks = minRacks
	return trace.Generate(cfg)
}

// runOne executes one policy over the shared trace, with a popularity
// forecaster in the loop, and summarizes it.
func runOne(cl *topology.Cluster, tr *trace.Trace, pol sim.Policy, label string, eps float64, hours int, predictor string) (SweepRow, error) {
	res, err := sim.Run(sim.Config{Cluster: cl, Trace: tr, Policy: pol, Predictor: predictor})
	if err != nil {
		return SweepRow{}, fmt.Errorf("experiments: %s: %w", label, err)
	}
	loads := make([]float64, len(res.TasksPerMachine))
	for i, n := range res.TasksPerMachine {
		loads[i] = float64(n)
	}
	cdf, err := metrics.NewCDF(loads)
	if err != nil {
		return SweepRow{}, err
	}
	jain, err := metrics.JainFairness(loads)
	if err != nil {
		return SweepRow{}, err
	}
	machines := float64(cl.NumMachines())
	h := float64(hours)
	movements := float64(res.Migrations + res.Replications)
	row := SweepRow{
		System:                   label,
		Epsilon:                  eps,
		RemoteTasksPerHour:       float64(res.NonLocalTasks()) / h,
		RemoteFraction:           res.RemoteFraction(),
		LoadCDF:                  cdf,
		LoadP50:                  cdf.Inverse(0.5),
		LoadP90:                  cdf.Inverse(0.9),
		LoadMax:                  cdf.Inverse(1.0),
		Jain:                     jain,
		MovementsPerMachineHour:  movements / machines / h,
		CompressedPerMachineHour: movements / machines / h / CompressionFactor,
		Migrations:               res.Migrations,
		Replications:             res.Replications,
		TotalTasks:               res.TotalTasks(),
	}
	return row, nil
}

// Fig3 reproduces Figure 3: Case 1 of the block placement problem
// (BP-Node — fixed k=3, no rack-level requirement). HDFS random
// placement versus Aurora at each ε, without dynamic replication.
func Fig3(s Setup) (*Figure, error) {
	return figSweep(s, "Figure 3 (Case 1: BP-Node)", 1 /* minRacks */, false /* budget */)
}

// Fig4 reproduces Figure 4: Case 2 (BP-Rack — fixed k=3 across 2 racks).
func Fig4(s Setup) (*Figure, error) {
	return figSweep(s, "Figure 4 (Case 2: BP-Rack)", 2, false)
}

// Fig5 reproduces Figure 5: Case 3 (BP-Replicate) — Scarlett (priority
// mode) versus Aurora with dynamic replication under the same budget β.
func Fig5(s Setup) (*Figure, error) {
	return figSweep(s, "Figure 5 (Case 3: BP-Replicate vs Scarlett)", 2, true)
}

// figSweep runs a baseline plus the Aurora ε-sweep. Without a budget
// the baseline is HDFS and Aurora only rebalances; with one it is
// Scarlett, and both replicate dynamically within β.
func figSweep(s Setup, name string, minRacks int, withBudget bool) (*Figure, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	cl, err := s.cluster()
	if err != nil {
		return nil, err
	}
	tr, err := s.trace(minRacks)
	if err != nil {
		return nil, err
	}
	budget := tr.NumBlocks()*3 + s.BudgetExtraBlocks
	// Row 0 is the baseline, rows 1..len(Epsilons) the sweep. Each
	// worker builds its own policy; the cluster and trace are shared
	// read-only.
	rows := make([]SweepRow, 1+len(s.Epsilons))
	errs := make([]error, len(rows))
	par.ForEach(len(rows), s.Workers, func(i int) {
		if i == 0 {
			var pol sim.Policy
			label := "HDFS"
			if withBudget {
				label = "Scarlett"
				pol, errs[0] = sim.NewScarlettPolicy(s.Seed, &baseline.Scarlett{Mode: baseline.Priority, Budget: budget})
			} else {
				pol, errs[0] = sim.NewHDFSPolicy(s.Seed)
			}
			if errs[0] == nil {
				rows[0], errs[0] = runOne(cl, tr, pol, label, 0, s.Hours, s.Predictor)
			}
			return
		}
		eps := s.Epsilons[i-1]
		opts := core.OptimizerOptions{
			Epsilon:             eps,
			RackAware:           minRacks > 1,
			MaxSearchIterations: s.MaxSearchIterations,
		}
		if withBudget {
			opts.ReplicationBudget = budget
			opts.MaxReplicationMoves = s.K
		}
		label := fmt.Sprintf("Aurora eps=%.1f", eps)
		rows[i], errs[i] = runOne(cl, tr, s.auroraPolicy(opts), label, eps, s.Hours, s.Predictor)
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	fig := &Figure{Name: name, Rows: rows}
	fig.Notes = fmt.Sprintf("cluster %d racks x %d machines, %d files, %d blocks, %d hours, %.0f jobs/hour",
		s.Racks, s.MachinesPerRack, s.Files, tr.NumBlocks(), s.Hours, s.JobsPerHour)
	if withBudget {
		fig.Notes = fmt.Sprintf("replication budget beta = %d (3x%d blocks + %d extra), K = %d",
			budget, tr.NumBlocks(), s.BudgetExtraBlocks, s.K)
	}
	return fig, nil
}

// Render writes the figure as aligned text tables, one row per system:
// the three panels of the paper's figures in columns.
func (f *Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s\n%s\n", f.Name, f.Notes); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "system\tremote/h (a)\tremote %\tload p50 (b)\tload p90\tload max\tJain\tmoves/mach/h (c)\tw/ compression")
	for _, r := range f.Rows {
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f%%\t%.0f\t%.0f\t%.0f\t%.4f\t%.3f\t%.3f\n",
			r.System, r.RemoteTasksPerHour, 100*r.RemoteFraction,
			r.LoadP50, r.LoadP90, r.LoadMax, r.Jain,
			r.MovementsPerMachineHour, r.CompressedPerMachineHour)
	}
	return tw.Flush()
}

// String renders the figure to a string.
func (f *Figure) String() string {
	var b strings.Builder
	if err := f.Render(&b); err != nil {
		return fmt.Sprintf("experiments: render: %v", err)
	}
	return b.String()
}

// Headline computes the paper's headline comparison for Figure 5: the
// best Aurora row's remote-task reduction relative to the first
// (baseline) row, in percent.
func (f *Figure) Headline() (bestSystem string, reductionPct float64, err error) {
	if len(f.Rows) < 2 {
		return "", 0, fmt.Errorf("experiments: figure has %d rows, need >= 2", len(f.Rows))
	}
	base := f.Rows[0].RemoteTasksPerHour
	if base == 0 {
		return f.Rows[0].System, 0, nil
	}
	best := f.Rows[1]
	for _, r := range f.Rows[2:] {
		if r.RemoteTasksPerHour < best.RemoteTasksPerHour {
			best = r
		}
	}
	return best.System, 100 * (base - best.RemoteTasksPerHour) / base, nil
}
