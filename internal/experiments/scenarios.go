package experiments

// Scenario matrix: predictor-vs-reactive sweeps over the named workload
// scenarios (internal/trace GenerateScenario). Every (scenario,
// predictor) cell runs the same Aurora policy over the same seeded
// trace; only the popularity signal handed to the Algorithm-5 period
// differs. The comparison metric is the *realized* SOL — the objective
// of the placement that served each epoch, evaluated against the window
// counts that epoch actually produced (sim.EpochStats.RealizedSOL) — so
// forecast optimism can't flatter a predictor.

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"

	"aurora/internal/core"
	"aurora/internal/metrics"
	"aurora/internal/par"
	"aurora/internal/popularity"
	"aurora/internal/sim"
	"aurora/internal/telemetry"
	"aurora/internal/topology"
	"aurora/internal/trace"
)

// ReactiveName labels the no-predictor baseline in matrices and CLIs.
const ReactiveName = "reactive"

// ScenarioSetup describes one scenario-matrix campaign. Zero fields
// take the defaults of DefaultScenarioSetup.
type ScenarioSetup struct {
	Seed               uint64
	Racks              int
	MachinesPerRack    int
	CapacityPerMachine int
	SlotsPerMachine    int
	Files              int
	Hours              int
	JobsPerHour        float64
	// PeriodHours is the scenarios' repeating period and the seasonal
	// predictor's season length (in 1-hour epochs).
	PeriodHours int
	// Epsilon is the optimizer admissibility bound for every cell.
	Epsilon float64
	// BudgetExtraBlocks tops up the 3x-minimum replication budget.
	BudgetExtraBlocks int
	// MaxSearchIterations caps the per-epoch local search.
	MaxSearchIterations int
	// Scenarios and Predictors span the matrix; Predictors may include
	// ReactiveName for the no-forecast baseline.
	Scenarios  []string
	Predictors []string
	// Workers bounds concurrent cells (0 = one per CPU, 1 = serial);
	// cells are slotted, so parallel output is byte-identical to serial.
	Workers int
	// Registry, when non-nil, receives the per-period prediction-error
	// series (aurora_predictor_* labeled by scenario and predictor).
	Registry *metrics.Registry
}

// DefaultScenarioSetup is a laptop-scale matrix: every scenario spans
// three full periods so seasonal predictors have history to learn from,
// and the arrival rate keeps hot-block holders contended.
func DefaultScenarioSetup(seed uint64) ScenarioSetup {
	return ScenarioSetup{
		Seed:                seed,
		Racks:               4,
		MachinesPerRack:     10,
		CapacityPerMachine:  600,
		SlotsPerMachine:     8,
		Files:               120,
		Hours:               24,
		JobsPerHour:         1400,
		PeriodHours:         6,
		Epsilon:             0.8,
		BudgetExtraBlocks:   1200,
		MaxSearchIterations: 50000,
		Scenarios:           trace.ScenarioNames(),
		Predictors:          []string{ReactiveName, popularity.NameEWMA, popularity.NameSeasonal},
	}
}

// ScenarioRow is one (scenario, predictor) cell of the matrix.
type ScenarioRow struct {
	Scenario  string
	Predictor string
	// MeanSOL and MaxSOL summarize the per-period realized objective λ.
	MeanSOL float64
	MaxSOL  float64
	// Locality miss: non-node-local tasks.
	RemoteTasksPerHour float64
	RemoteFraction     float64
	// Forecast quality, averaged over scored periods (zero for the
	// reactive baseline).
	MeanWAE     float64
	MeanTopK    float64
	PredPeriods int
	// Movement overhead.
	Migrations   int64
	Replications int64
	// Per-period series (index = reconfigured-epoch order): realized
	// SOL for every cell; WAE/top-K only where a forecast was scored.
	SOLSeries  []float64
	WAESeries  []float64
	TopKSeries []float64
}

// ScenarioMatrix is the rendered sweep.
type ScenarioMatrix struct {
	Setup ScenarioSetup
	Rows  []ScenarioRow // scenario-major, predictor-minor, setup order
}

func (s ScenarioSetup) validate() error {
	if s.Racks <= 0 || s.MachinesPerRack <= 0 || s.CapacityPerMachine <= 0 ||
		s.SlotsPerMachine <= 0 || s.Files <= 0 || s.Hours <= 0 ||
		s.JobsPerHour <= 0 || s.PeriodHours <= 0 || s.Epsilon <= 0 {
		return fmt.Errorf("%w: %+v", ErrBadSetup, s)
	}
	if len(s.Scenarios) == 0 || len(s.Predictors) == 0 {
		return fmt.Errorf("%w: empty scenario or predictor list", ErrBadSetup)
	}
	for _, p := range s.Predictors {
		if popularity.IsReactive(p) {
			continue
		}
		if _, err := popularity.New[core.BlockID](p, popularity.PredictorOptions{}); err != nil {
			return fmt.Errorf("%w: %w", ErrBadSetup, err)
		}
	}
	return nil
}

// RunScenarioMatrix executes the full matrix. Cells run concurrently up
// to Setup.Workers; each owns its trace-shared slot, policy and
// predictor, so results are independent of scheduling.
func RunScenarioMatrix(s ScenarioSetup) (*ScenarioMatrix, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	cl, err := topology.Uniform(s.Racks, s.MachinesPerRack, s.CapacityPerMachine, s.SlotsPerMachine)
	if err != nil {
		return nil, err
	}
	// One trace per scenario, shared read-only by that scenario's cells.
	traces := make([]*trace.Trace, len(s.Scenarios))
	for i, name := range s.Scenarios {
		traces[i], err = trace.GenerateScenario(name, trace.ScenarioConfig{
			Seed:        s.Seed,
			Files:       s.Files,
			Hours:       s.Hours,
			JobsPerHour: s.JobsPerHour,
			PeriodHours: s.PeriodHours,
		})
		if err != nil {
			return nil, err
		}
	}
	rows := make([]ScenarioRow, len(s.Scenarios)*len(s.Predictors))
	errs := make([]error, len(rows))
	par.ForEach(len(rows), s.Workers, func(i int) {
		sc := i / len(s.Predictors)
		pr := i % len(s.Predictors)
		rows[i], errs[i] = s.runCell(cl, traces[sc], s.Scenarios[sc], s.Predictors[pr])
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	m := &ScenarioMatrix{Setup: s, Rows: rows}
	if s.Registry != nil {
		m.export(s.Registry)
	}
	return m, nil
}

func (s ScenarioSetup) runCell(cl *topology.Cluster, tr *trace.Trace, scenario, predictor string) (ScenarioRow, error) {
	budget := tr.NumBlocks()*3 + s.BudgetExtraBlocks
	pol := &sim.AuroraPolicy{Opts: core.OptimizerOptions{
		Epsilon:             s.Epsilon,
		RackAware:           true,
		ReplicationBudget:   budget,
		MaxReplicationMoves: 20000,
		MaxSearchIterations: s.MaxSearchIterations,
	}}
	res, err := sim.Run(sim.Config{
		Cluster:         cl,
		Trace:           tr,
		Policy:          pol,
		Predictor:       predictor,
		PredictorSeason: s.PeriodHours,
	})
	if err != nil {
		return ScenarioRow{}, fmt.Errorf("experiments: scenario %s/%s: %w", scenario, predictor, err)
	}
	row := ScenarioRow{
		Scenario:           scenario,
		Predictor:          res.Predictor,
		RemoteTasksPerHour: float64(res.NonLocalTasks()) / float64(s.Hours),
		RemoteFraction:     res.RemoteFraction(),
		Migrations:         res.Migrations,
		Replications:       res.Replications,
	}
	row.MeanSOL, row.MaxSOL = res.MeanRealizedSOL()
	row.MeanWAE, row.MeanTopK, row.PredPeriods = res.MeanPredError()
	for _, e := range res.Epochs {
		if !e.Reconfigured {
			continue
		}
		row.SOLSeries = append(row.SOLSeries, e.RealizedSOL)
		if e.PredScored {
			row.WAESeries = append(row.WAESeries, e.PredWAE)
			row.TopKSeries = append(row.TopKSeries, e.PredTopK)
		}
	}
	return row, nil
}

// export publishes every cell's per-period prediction-error series,
// labeled by scenario and predictor, in deterministic row/period order.
func (m *ScenarioMatrix) export(reg *metrics.Registry) {
	for _, r := range m.Rows {
		labels := []metrics.Label{
			metrics.L("scenario", r.Scenario),
			metrics.L("predictor", r.Predictor),
		}
		for i := range r.WAESeries {
			telemetry.ExportPredictionError(reg, r.WAESeries[i], r.TopKSeries[i], labels...)
		}
		reg.Gauge("aurora_scenario_mean_sol", labels...).Set(r.MeanSOL)
	}
}

// Row returns the cell for (scenario, predictor), or nil.
func (m *ScenarioMatrix) Row(scenario, predictor string) *ScenarioRow {
	for i := range m.Rows {
		if m.Rows[i].Scenario == scenario && m.Rows[i].Predictor == predictor {
			return &m.Rows[i]
		}
	}
	return nil
}

// Render writes the matrix: an aligned table plus one stable
// machine-parseable line per cell (consumed by scripts/scenario_smoke.sh
// and EXPERIMENTS.md). No wall-clock content — output must be
// byte-identical across runs of the same seed.
func (m *ScenarioMatrix) Render(w io.Writer) error {
	s := m.Setup
	if _, err := fmt.Fprintf(w,
		"Scenario matrix: %d racks x %d machines, %d files, %d hours, period %dh, %.0f jobs/hour, eps=%.2f, seed=%d\n",
		s.Racks, s.MachinesPerRack, s.Files, s.Hours, s.PeriodHours, s.JobsPerHour, s.Epsilon, s.Seed); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scenario\tpredictor\tmean SOL\tmax SOL\tremote/h\tremote %\tWAE\ttop-K\tmigr\trepl")
	for _, r := range m.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.2f\t%.1f\t%.1f%%\t%.3f\t%.3f\t%d\t%d\n",
			r.Scenario, r.Predictor, r.MeanSOL, r.MaxSOL,
			r.RemoteTasksPerHour, 100*r.RemoteFraction,
			r.MeanWAE, r.MeanTopK, r.Migrations, r.Replications)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, r := range m.Rows {
		if _, err := fmt.Fprintf(w,
			"cell scenario=%s predictor=%s mean_sol=%s max_sol=%s remote_per_hour=%s remote_frac=%s wae=%s topk=%s pred_periods=%d\n",
			r.Scenario, r.Predictor,
			trimFloat(r.MeanSOL), trimFloat(r.MaxSOL),
			trimFloat(r.RemoteTasksPerHour), trimFloat(r.RemoteFraction),
			trimFloat(r.MeanWAE), trimFloat(r.MeanTopK), r.PredPeriods); err != nil {
			return err
		}
	}
	return nil
}

// String renders the matrix to a string.
func (m *ScenarioMatrix) String() string {
	var b strings.Builder
	if err := m.Render(&b); err != nil {
		return fmt.Sprintf("experiments: render: %v", err)
	}
	return b.String()
}

// trimFloat formats with enough precision for comparisons without
// trailing-zero noise.
func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', 4, 64)
}
