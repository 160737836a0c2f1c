package sim

// Simulation runs are compared across policies and must be replayable
// from a seed: aurora-lint forbids global randomness and wall-clock
// reads here; see DESIGN.md "Correctness tooling".
//
//lint:deterministic

import (
	"errors"
	"fmt"

	"aurora/internal/aurora"
	"aurora/internal/core"
	"aurora/internal/popularity"
	"aurora/internal/sched"
	"aurora/internal/topology"
	"aurora/internal/trace"
)

// windowEpochs is the usage-monitor window W in epochs (paper: 2).
const windowEpochs = 2

// Config parameterizes one simulation run. Epochs are one trace hour
// (the paper reconfigures hourly); task durations scale by locality as
// internal/sched's replay defines.
type Config struct {
	Cluster *topology.Cluster
	Trace   *trace.Trace
	Policy  Policy
	// Predictor selects the popularity forecaster fed to the policy at
	// each Algorithm-5 period: "ewma" or "seasonal" (see popularity.New),
	// or "" / "reactive" for raw window counts.
	Predictor string
	// PredictorSeason is the seasonal predictor's season length in
	// epochs (0 = popularity default of 24). Set it to the workload's
	// period (e.g. trace.ScenarioConfig.PeriodHours).
	PredictorSeason int
}

// Errors returned by the simulator.
var (
	ErrBadSimConfig = errors.New("sim: invalid config")
)

func (c Config) validate() error {
	if c.Cluster == nil || c.Trace == nil || c.Policy == nil {
		return fmt.Errorf("%w: cluster, trace and policy are required", ErrBadSimConfig)
	}
	if c.PredictorSeason < 0 {
		return fmt.Errorf("%w: PredictorSeason %d", ErrBadSimConfig, c.PredictorSeason)
	}
	return nil
}

// EpochStats aggregates one reconfiguration period.
type EpochStats struct {
	Epoch        int
	LocalTasks   int64 // node-local
	RemoteTasks  int64 // rack-local + remote (the paper's "remote")
	Migrations   int
	Replications int
	Evictions    int
	// Cost is the placement objective λ right after reconfiguration.
	Cost float64
	// Reconfigured marks epochs closed by an Algorithm-5 period (the
	// final partial epoch is flushed without one); the fields below are
	// only meaningful when it is set.
	Reconfigured bool
	// RealizedSOL is the objective λ of the placement that *served*
	// this epoch, evaluated against the window counts realized at its
	// close — the honest basis for predictor-vs-reactive comparison,
	// since Cost after a predicted SetPopularity reflects forecast
	// popularity, not what the cluster actually experienced.
	RealizedSOL float64
	// PredWAE and PredTopK score the forecast this epoch ran under
	// against the realized window (aurora.Score). PredScored marks
	// epochs where a forecast existed to score.
	PredWAE    float64
	PredTopK   float64
	PredScored bool
}

// Result is the outcome of a simulation run: what the job replay
// counted, plus the policy's epochs and block movements.
type Result struct {
	sched.Result
	Policy string
	// Predictor is the effective popularity forecaster ("reactive" when
	// the policy saw raw window counts).
	Predictor    string
	Epochs       []EpochStats
	Migrations   int64
	Replications int64
	Evictions    int64
}

// MeanRealizedSOL averages EpochStats.RealizedSOL over the epochs
// closed by a reconfiguration period, and also returns the max. Zero
// periods yields (0, 0).
func (r *Result) MeanRealizedSOL() (mean, max float64) {
	var sum float64
	var n int
	for _, e := range r.Epochs {
		if !e.Reconfigured {
			continue
		}
		sum += e.RealizedSOL
		if e.RealizedSOL > max {
			max = e.RealizedSOL
		}
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), max
}

// MeanPredError averages the per-period prediction-error series over
// the epochs where a forecast was scored.
func (r *Result) MeanPredError() (wae, topK float64, periods int) {
	for _, e := range r.Epochs {
		if !e.PredScored {
			continue
		}
		wae += e.PredWAE
		topK += e.PredTopK
		periods++
	}
	if periods == 0 {
		return 0, 0, 0
	}
	return wae / float64(periods), topK / float64(periods), periods
}

// Run executes the simulation to completion (all jobs finished) and
// returns the collected statistics.
func Run(cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pl, err := core.NewPlacement(cfg.Cluster, cfg.Trace.BlockSpecs())
	if err != nil {
		return nil, fmt.Errorf("sim: placement: %w", err)
	}
	// Initial dataset: every block is placed before the first job.
	for _, f := range cfg.Trace.Files {
		for _, b := range f.Blocks {
			if err := cfg.Policy.PlaceInitial(pl, b, topology.NoMachine); err != nil {
				return nil, fmt.Errorf("sim: initial placement: %w", err)
			}
		}
	}
	mon, err := popularity.NewMonitor[core.BlockID](trace.TicksPerHour, windowEpochs)
	if err != nil {
		return nil, fmt.Errorf("sim: monitor: %w", err)
	}
	forecast, err := aurora.NewForecaster(cfg.Predictor, popularity.PredictorOptions{Season: cfg.PredictorSeason})
	if err != nil {
		return nil, fmt.Errorf("sim: predictor: %w", err)
	}
	res := &Result{Policy: cfg.Policy.Name(), Predictor: cfg.Predictor}
	if popularity.IsReactive(cfg.Predictor) {
		res.Predictor = "reactive"
	}
	h := &host{policy: cfg.Policy, pl: pl, mon: mon, forecast: forecast, res: res, epoch: EpochStats{Epoch: 1}}
	h.observer, _ = cfg.Policy.(TaskObserver)
	rr, err := sched.Replay[core.BlockID](cfg.Cluster, cfg.Trace.Jobs, trace.TicksPerHour, h)
	if errors.Is(err, sched.ErrNoSlots) {
		return nil, fmt.Errorf("%w: %w", ErrBadSimConfig, err)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	// Close the final partial epoch so its tasks are reported.
	if e := h.epoch; e.LocalTasks+e.RemoteTasks > 0 || e.Migrations+e.Replications > 0 {
		h.flushEpoch()
	}
	res.Result = *rr
	if err := pl.Validate(); err != nil {
		return nil, fmt.Errorf("sim: placement corrupted during run: %w", err)
	}
	if err := pl.CheckFeasible(); err != nil {
		return nil, fmt.Errorf("sim: placement infeasible after run: %w", err)
	}
	return res, nil
}

// host is the simulator's side of the job replay: tasks read blocks of
// the simulated placement, a launch feeds the usage monitor and the
// policy's replication-on-read hook, and each epoch runs one Algorithm-5
// period of the policy.
type host struct {
	policy   Policy
	observer TaskObserver // nil unless the policy replicates on read
	pl       *core.Placement
	mon      *popularity.Monitor[core.BlockID]
	forecast *aurora.Forecaster
	res      *Result
	epoch    EpochStats // the epoch in progress
}

// Tasks implements sched.Host: one map task per input block.
func (h *host) Tasks(j trace.Job) ([]core.BlockID, error) { return j.Blocks, nil }

// Holders implements sched.Host.
func (h *host) Holders(b core.BlockID) []topology.MachineID { return h.pl.Replicas(b) }

// Holds implements sched.Host.
func (h *host) Holds(b core.BlockID, m topology.MachineID) bool { return h.pl.HasReplica(b, m) }

// Launch implements sched.Host.
func (h *host) Launch(b core.BlockID, a sched.Assignment, now int64) error {
	h.mon.Record(b, now)
	if h.observer != nil {
		// Replication-on-read hook (DARE, Aurora+RoR): the policy may
		// copy the block to the machine that runs the task.
		if n := h.observer.OnTask(h.pl, b, a.Machine, a.Level == sched.NodeLocal, now); n > 0 {
			h.epoch.Replications += n
			h.res.Replications += int64(n)
		}
	}
	if a.Level == sched.NodeLocal {
		h.epoch.LocalTasks++
	} else {
		h.epoch.RemoteTasks++
	}
	return nil
}

// Epoch implements sched.Host: score the epoch that just closed, hand
// the policy the next forecast and let it reconfigure.
func (h *host) Epoch(now int64) error {
	pl := h.pl
	snap := h.mon.Snapshot(now)
	// Score the epoch that just closed against what it actually saw:
	// load the realized window counts and record the objective of the
	// placement that served it.
	for _, id := range pl.Blocks() {
		if err := pl.SetPopularity(id, float64(snap[id])); err != nil {
			return err
		}
	}
	h.epoch.Reconfigured = true
	h.epoch.RealizedSOL = pl.Cost()
	// Then score the forecast the epoch ran under and hand the policy
	// the next one instead of the trailing window.
	fc, err := h.forecast.Apply(pl, snap)
	if err != nil {
		return err
	}
	h.forecast.Commit(fc)
	h.epoch.PredWAE, h.epoch.PredTopK, h.epoch.PredScored = fc.Score.WAE, fc.Score.TopK, fc.Score.Scored
	rc, err := h.policy.Reconfigure(pl)
	if err != nil {
		return err
	}
	h.epoch.Migrations += rc.Migrations
	h.epoch.Replications += rc.Replications
	h.epoch.Evictions += rc.Evictions
	h.res.Migrations += int64(rc.Migrations)
	h.res.Replications += int64(rc.Replications)
	h.res.Evictions += int64(rc.Evictions)
	h.flushEpoch()
	return nil
}

// flushEpoch closes the epoch in progress at the placement's cost.
func (h *host) flushEpoch() {
	h.epoch.Cost = h.pl.Cost()
	h.res.Epochs = append(h.res.Epochs, h.epoch)
	h.epoch = EpochStats{Epoch: h.epoch.Epoch + 1}
}
