// Package aurora wires the Section V framework together: a usage monitor
// feeding block popularity, the block placement controller (Algorithm 4)
// and the placement optimizer (Algorithm 5) running once per
// reconfiguration period against a target system — the mini-DFS namenode
// or a standalone placement.
package aurora

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/invariant"
	"aurora/internal/metrics"
	"aurora/internal/popularity"
	"aurora/internal/retrypolicy"
	"aurora/internal/telemetry"
)

// Target is anything the periodic controller can optimize: the mini-DFS
// namenode implements it natively, and StandaloneTarget adapts a bare
// placement for library users.
type Target interface {
	OptimizeNow(core.OptimizerOptions) (core.OptimizeResult, error)
}

// Errors returned by the controller.
var (
	ErrBadPeriod = errors.New("aurora: period must be positive")
	ErrNilTarget = errors.New("aurora: nil target")
	ErrStopped   = errors.New("aurora: controller stopped")
)

// Config parameterizes the periodic controller.
type Config struct {
	// Period is the reconfiguration interval (the paper uses 1 hour in
	// production; tests and the loopback testbed use seconds).
	Period time.Duration
	// Options configure each Algorithm 5 run: epsilon, replication
	// budget beta, the K bound, rack awareness.
	Options core.OptimizerOptions
	// OnPeriod, if non-nil, observes every optimization outcome.
	OnPeriod func(core.OptimizeResult, error)
	// ErrorBackoff spaces optimization attempts after failures: once a
	// period errors (e.g. the namenode is mid-recovery and not ready),
	// the next attempt waits at least ErrorBackoff.Delay(consecutive
	// errors); ticks inside the window are skipped, not queued, and a
	// success resets the backoff. The zero value means
	// retrypolicy.Default. The controller never aborts on error — a
	// failed period degrades to a skipped one.
	ErrorBackoff retrypolicy.Policy
}

// Stats aggregates the controller's lifetime activity.
type Stats struct {
	Periods      int
	Replications int
	Migrations   int
	Evictions    int
	Errors       int
	// SkippedPeriods counts ticks suppressed by the error backoff while
	// the target was failing — the degraded-mode signal.
	SkippedPeriods int
	LastCost       float64
}

// Controller runs Algorithm 5 against a Target once per period.
type Controller struct {
	cfg    Config
	target Target

	mu           sync.Mutex
	stats        Stats
	consecErrors int
	nextEligible time.Time

	stop chan struct{}
	done chan struct{}
}

// NewController validates the configuration and starts the periodic
// loop.
func NewController(target Target, cfg Config) (*Controller, error) {
	if target == nil {
		return nil, ErrNilTarget
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadPeriod, cfg.Period)
	}
	if cfg.ErrorBackoff.MaxAttempts == 0 && cfg.ErrorBackoff.BaseDelay == 0 {
		cfg.ErrorBackoff = retrypolicy.Default
	}
	c := &Controller{
		cfg:    cfg,
		target: target,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go c.loop()
	return c, nil
}

// RunOnce triggers one optimization period immediately (in the caller's
// goroutine), independent of the timer.
func (c *Controller) RunOnce() (core.OptimizeResult, error) {
	res, err := c.target.OptimizeNow(c.cfg.Options)
	c.record(res, err)
	return res, err
}

// Stats returns a copy of the lifetime counters.
func (c *Controller) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close stops the periodic loop and waits for it to exit.
func (c *Controller) Close() error {
	select {
	case <-c.stop:
		return ErrStopped
	default:
	}
	close(c.stop)
	<-c.done
	return nil
}

func (c *Controller) loop() {
	defer close(c.done)
	ticker := time.NewTicker(c.cfg.Period)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.mu.Lock()
			backedOff := time.Now().Before(c.nextEligible)
			if backedOff {
				c.stats.SkippedPeriods++
			}
			c.mu.Unlock()
			if backedOff {
				metrics.Default.Counter("aurora.skipped_periods").Inc()
				continue
			}
			res, err := c.target.OptimizeNow(c.cfg.Options)
			c.record(res, err)
		}
	}
}

func (c *Controller) record(res core.OptimizeResult, err error) {
	c.mu.Lock()
	c.stats.Periods++
	if err != nil {
		c.stats.Errors++
		c.consecErrors++
		c.nextEligible = time.Now().Add(c.cfg.ErrorBackoff.Delay(c.consecErrors))
		metrics.Default.Counter("aurora.degraded_periods").Inc()
	} else {
		c.consecErrors = 0
		c.nextEligible = time.Time{}
		c.stats.Replications += res.Replications
		c.stats.Migrations += res.Search.Movements
		c.stats.Evictions += res.Evictions
		c.stats.LastCost = res.Search.FinalCost
	}
	c.mu.Unlock()
	if c.cfg.OnPeriod != nil {
		c.cfg.OnPeriod(res, err)
	}
}

// Forecaster is the forecast step of every Aurora period (Section V): it
// turns the usage monitor's window W into the block popularities
// Algorithm 5 then optimizes against — the window itself when reactive,
// a predictor's forecast of the next window otherwise. The namenode, the
// simulator and StandaloneTarget each run their periods through one. It
// reads no clock and takes no lock: the caller serializes Apply with
// every other writer of the placement. The zero Forecaster is reactive.
type Forecaster struct {
	pred popularity.Predictor[core.BlockID] // nil when reactive
	last map[core.BlockID]float64           // the forecast the next window scores
}

// Score rates the forecast a period ran under against the window it
// forecast (popularity.WeightedAbsError, and popularity.TopKOverlap at
// popularity.DefaultTopK). Scored is false when there was no forecast:
// reactive, or the first period.
type Score struct {
	WAE, TopK float64
	Scored    bool
}

// NewForecaster builds a forecaster by predictor name: one of
// popularity.Names(), or a reactive name (see popularity.IsReactive).
func NewForecaster(name string, opts popularity.PredictorOptions) (*Forecaster, error) {
	if popularity.IsReactive(name) {
		return &Forecaster{}, nil
	}
	pred, err := popularity.New[core.BlockID](name, opts)
	if err != nil {
		return nil, err
	}
	return &Forecaster{pred: pred}, nil
}

// Apply runs one period's forecast step: it scores the outstanding
// forecast against window, feeds window to the predictor, and writes the
// new forecast (reactive: window) into every block of every shard of sp.
// A block the forecast does not name gets popularity 0.
func (f *Forecaster) Apply(sp *core.ShardedPlacement, window map[core.BlockID]int64) (Score, error) {
	var s Score
	pop := func(id core.BlockID) float64 { return float64(window[id]) }
	if f.pred != nil {
		if f.last != nil {
			s = Score{
				WAE:    popularity.WeightedAbsError(f.last, window),
				TopK:   popularity.TopKOverlap(f.last, window, popularity.DefaultTopK),
				Scored: true,
			}
		}
		f.pred.Observe(window)
		f.last = f.pred.Predict()
		pop = func(id core.BlockID) float64 { return f.last[id] }
	}
	for i := 0; i < sp.NumShards(); i++ {
		p := sp.Shard(i)
		for _, id := range p.Blocks() {
			if err := p.SetPopularity(id, pop(id)); err != nil {
				return s, err
			}
		}
	}
	return s, nil
}

// StandaloneTarget adapts a bare placement plus usage monitor into a
// Target, for embedding Aurora in systems that are not the mini-DFS: the
// caller records block accesses and the controller periodically refreshes
// popularities (reactively) and optimizes.
type StandaloneTarget struct {
	// monitor is internally synchronized and clock is immutable after
	// construction, so neither sits in the mutex-guarded group.
	monitor *popularity.Monitor[core.BlockID]
	clock   func() int64

	mu        sync.Mutex
	placement *core.ShardedPlacement // the one-shard view of the wrapped placement
	forecast  Forecaster
}

// NewStandaloneTarget wraps placement with a usage monitor whose sliding
// window spans windowBuckets*bucketLen ticks of the given clock.
func NewStandaloneTarget(p *core.Placement, bucketLen int64, windowBuckets int, clock func() int64) (*StandaloneTarget, error) {
	if p == nil {
		return nil, errors.New("aurora: nil placement")
	}
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	mon, err := popularity.NewMonitor[core.BlockID](bucketLen, windowBuckets)
	if err != nil {
		return nil, err
	}
	return &StandaloneTarget{placement: core.SingleShard(p), monitor: mon, clock: clock}, nil
}

// RecordAccess registers one access of block id at the current clock.
func (t *StandaloneTarget) RecordAccess(id core.BlockID) {
	t.monitor.Record(id, t.clock())
}

// OptimizeNow implements Target: refresh popularities and run one
// Algorithm 5 period.
func (t *StandaloneTarget) OptimizeNow(opts core.OptimizerOptions) (core.OptimizeResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := t.monitor.Snapshot(t.clock())
	if _, err := t.forecast.Apply(t.placement, snap); err != nil {
		return core.OptimizeResult{}, err
	}
	assertAfter := invariant.Enabled && t.placement.CheckFeasible() == nil
	start := time.Now()
	res, err := core.OptimizeSharded(t.placement, core.ShardedOptimizerOptions{Opts: opts})
	if err != nil {
		return core.OptimizeResult{}, err
	}
	telemetry.ExportShardedOptimizePeriod(metrics.Default, res, time.Since(start))
	telemetry.ExportMachineLoads(metrics.Default, t.placement.AppendLoads(nil))
	telemetry.ExportHotspots(metrics.Default, snap)
	if assertAfter {
		if verr := invariant.CheckPlacement(t.placement.Shard(0)); verr != nil {
			return res.PerShard[0], fmt.Errorf("aurora: post-optimize %w", verr)
		}
	}
	return res.PerShard[0], nil
}

// WithPlacement runs fn on the wrapped placement under the target's
// lock, for reads and writes that must not race the optimizer.
func (t *StandaloneTarget) WithPlacement(fn func(*core.Placement) error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fn(t.placement.Shard(0))
}

var _ Target = (*StandaloneTarget)(nil)
