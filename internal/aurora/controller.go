// Package aurora wires the Section V framework together: the forecast
// step that turns the usage monitor's window into block popularity, and
// the Controller that runs the placement optimizer (Algorithm 5) once
// per reconfiguration period against a Target — the mini-DFS namenode.
package aurora

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"aurora/internal/core"
	"aurora/internal/metrics"
	"aurora/internal/popularity"
	"aurora/internal/retrypolicy"
)

// Target is anything the periodic controller can optimize; the mini-DFS
// namenode implements it.
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

// Controller runs Algorithm 5 against a Target once per period. It
// never aborts on error — a failed period degrades to a skipped one:
// once a period errors (e.g. the namenode is mid-recovery and not
// ready), the next attempt waits at least retrypolicy.Default's delay
// for the count of consecutive errors; ticks inside the window are
// skipped, not queued, and a success resets the backoff.
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
		c.nextEligible = time.Now().Add(retrypolicy.Default.Delay(c.consecErrors))
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
// a predictor's forecast of the next window otherwise. The namenode and
// the simulator each run their periods through one. A period's forecast
// is staged: Apply writes it into the period's placement without
// changing the forecaster, and Commit moves the forecaster on to it once
// the period is kept, so a failed period leaves the next forecast as it
// was. It reads no clock and takes no lock: the caller serializes its
// calls with every other writer of the placement. The zero Forecaster is
// reactive.
type Forecaster struct {
	pred *popularity.Seasonal[core.BlockID] // nil when reactive
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

// Forecast is one period's staged forecast: the window it was made
// from, the popularities it wrote, and the score of the forecast before
// it against that window.
type Forecast struct {
	Score  Score
	window map[core.BlockID]int64
	pops   map[core.BlockID]float64 // nil when reactive
}

// NewForecaster builds a forecaster by predictor name: "ewma",
// "seasonal", or a reactive name (see popularity.New and IsReactive).
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

// Apply runs one period's forecast step without changing f: it scores
// the outstanding forecast against window and writes the next forecast
// (reactive: window) into every block of p. A block the forecast does
// not name gets popularity 0. The returned Forecast is what Commit takes
// once the period is kept.
func (f *Forecaster) Apply(p *core.Placement, window map[core.BlockID]int64) (Forecast, error) {
	fc := Forecast{window: window}
	pop := func(id core.BlockID) float64 { return float64(window[id]) }
	if f.pred != nil {
		if f.last != nil {
			fc.Score = Score{
				WAE:    popularity.WeightedAbsError(f.last, window),
				TopK:   popularity.TopKOverlap(f.last, window, popularity.DefaultTopK),
				Scored: true,
			}
		}
		fc.pops = f.pred.Forecast(window)
		pop = func(id core.BlockID) float64 { return fc.pops[id] }
	}
	for _, id := range p.Blocks() {
		if err := p.SetPopularity(id, pop(id)); err != nil {
			return fc, err
		}
	}
	return fc, nil
}

// Commit moves f on to fc, the forecast of a period that was kept: the
// predictor observes fc's window, and the next Apply scores fc's
// popularities. Commit the forecasts of the periods kept, in order.
func (f *Forecaster) Commit(fc Forecast) {
	if f.pred == nil {
		return
	}
	f.pred.Observe(fc.window)
	f.last = fc.pops
}
