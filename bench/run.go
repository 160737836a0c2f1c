package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"aurora/internal/core"
	"aurora/internal/invariant"
	"aurora/internal/metrics"
)

// runConfig is one invocation of the driver.
type runConfig struct {
	W       *workload
	Seed    uint64
	Seconds time.Duration // length of the timed phase
	Warmup  time.Duration // discarded load before it
	Trace   bool
	OutDir  string
	// SetupReps is how many times the cluster is booted and preloaded;
	// setup_s is the median, the last one is kept for the run.
	SetupReps int
	// EpiloguePeriods is how many optimizer periods a workload whose
	// timed phase has none runs afterwards.
	EpiloguePeriods int
	// SkipProbes leaves the fixed-input probes out of a traced run.
	SkipProbes bool
}

// report is everything one run found out. Metrics holds either the
// end-to-end or the per-layer set; the rest is context for whoever has
// to explain a number later.
type report struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Trace      bool      `json:"trace"`
	Seconds    float64   `json:"seconds"`
	Correct    bool      `json:"correct"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Metrics    metricSet `json:"metrics"`
	Config     *workload `json:"config"`
	PlanHash   string    `json:"plan_hash"`
	Env        envInfo   `json:"env"`
	SetupS     []float64 `json:"setup_s_samples"`
	Samples    int       `json:"latency_samples"`
	Periods    []period  `json:"optimizer_periods"`
	Violations []string  `json:"violations,omitempty"`
	Warnings   []string  `json:"warnings,omitempty"`
	FirstError string    `json:"first_error,omitempty"`
}

// benchEnv is a booted, preloaded cluster with its workers.
type benchEnv struct {
	w        *workload
	c        *cluster
	workers  []*worker
	dispatch func() op // open loop only
	tr       *tracer
}

// setUp boots the cluster, preloads the dataset through the workers'
// own clients and waits until every replica is confirmed. The whole of
// it is what setup_s times.
func setUp(cfg runConfig, scratch string, tr *tracer) (*benchEnv, error) {
	w := cfg.W
	c, err := boot(w.Cluster, scratch, tr)
	if err != nil {
		return nil, err
	}
	e := &benchEnv{w: w, c: c, tr: tr}
	for i := 0; i < w.Workers; i++ {
		next, err := w.plan(cfg.Seed, i)
		if err != nil {
			return nil, errors.Join(err, c.close())
		}
		e.workers = append(e.workers, &worker{
			id: i, w: w, seed: cfg.Seed, next: next,
			c:       c.newClient(cfg.Seed*131 + uint64(i)),
			scratch: make([]byte, w.FileBytes),
		})
	}
	if w.Rate > 0 {
		e.dispatch = e.workers[0].next
	}
	errs := make([]error, len(e.workers))
	var wg sync.WaitGroup
	for i, wk := range e.workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			errs[i] = wk.preload()
		}(i, wk)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, errors.Join(fmt.Errorf("bench: preload: %w", err), c.close())
	}
	if _, err := c.settle(); err != nil {
		return nil, errors.Join(err, c.close())
	}
	if w.Cluster.Disk {
		// The store does not fsync, so the preload sits in the page cache
		// as dirty pages. Flush them here, inside set-up, so the kernel's
		// writeback does not compete with the phases that are timed.
		syscall.Sync()
	}
	return e, nil
}

// setTraced switches every worker between its plain client and one
// whose transports record spans, and turns the recorder on or off.
func (e *benchEnv) setTraced(on bool) {
	for _, wk := range e.workers {
		if on {
			wk.tr = e.tr
			wk.c = e.c.newClient(wk.seed*131+uint64(wk.id), e.tr.clientOptions(e.c.nn.Addr(), &wk.cur)...)
		} else {
			wk.tr = nil
			wk.c = e.c.newClient(wk.seed*131 + uint64(wk.id))
		}
	}
	e.tr.rec.on.Store(on)
}

// load offers the workload's traffic for d, with the optimizer on its
// schedule beside it if the workload has one.
func (e *benchEnv) load(d time.Duration) (*phase, error) {
	stop := make(chan struct{})
	var periods []period
	var optErr error
	var wg sync.WaitGroup
	if e.w.OptimizeEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			periods, optErr = optimizeEvery(e.c, e.w.datasetBlocks(), e.w.OptimizeEvery, stop)
		}()
	}
	var p *phase
	if e.w.Rate > 0 {
		p = runOpen(e.workers, e.dispatch, e.w.Rate, d)
	} else {
		p = runClosed(e.workers, d)
	}
	close(stop)
	wg.Wait()
	p.Periods = periods
	return p, optErr
}

// hotPath maps a planned operation to a stored file, for the lookups
// that feed the usage monitor ahead of an epilogue period.
func (wk *worker) hotPath(o op) string {
	if len(wk.live) > 0 {
		return wk.live[o.key%len(wk.live)]
	}
	return wk.w.path(o.key % wk.w.Files)
}

// epilogue runs n optimizer periods on the cluster the timed phase left
// behind, each after a short burst of get_locations that continues the
// workload's key sequence, so every workload reports what a period
// costs on its own dataset and popularity. Workloads that schedule the
// optimizer during the timed phase skip it.
func (e *benchEnv) epilogue(n int) (*phase, error) {
	const burst = 20
	total := newPhase()
	for i := 0; i < n; i++ {
		parts := make([]*phase, len(e.workers))
		var wg sync.WaitGroup
		for j, wk := range e.workers {
			wg.Add(1)
			go func(j int, wk *worker) {
				defer wg.Done()
				p := newPhase()
				for k := 0; k < burst; k++ {
					o := wk.next()
					start := time.Now()
					_, err := wk.c.Locations(wk.hotPath(o))
					p.add(outcome{err: err, end: time.Now()}, start, wk.w.Limit, start)
				}
				parts[j] = p
			}(j, wk)
		}
		wg.Wait()
		for _, p := range parts {
			total.merge(p)
		}
		p, err := optimizeOnce(e.c, e.w.datasetBlocks())
		if err != nil {
			return total, err
		}
		total.Periods = append(total.Periods, p)
	}
	return total, nil
}

// verify is the correctness oracle run after the load: the reconcile
// backlog must drain, fsck must be healthy, the desired placement must
// satisfy the paper's invariants, and every file write_pipeline still
// holds must read back byte-identical. It returns the violations found,
// the time the cluster took to converge and the balance ratio of the
// final placement.
func (e *benchEnv) verify() (violations []string, converge time.Duration, ratio float64) {
	converge, err := e.c.settle()
	if err != nil {
		violations = append(violations, err.Error())
	}
	e.c.drain()
	health, err := e.workers[0].c.Fsck()
	switch {
	case err != nil:
		violations = append(violations, fmt.Sprintf("fsck: %v", err))
	case !health.Healthy:
		violations = append(violations, fmt.Sprintf("fsck unhealthy: %+v", health))
	}
	ratio = 1
	p, err := e.c.nn.PlacementClone()
	if err != nil {
		violations = append(violations, fmt.Sprintf("placement clone: %v", err))
	} else {
		if err := invariant.CheckPlacement(p); err != nil {
			violations = append(violations, err.Error())
		}
		ratio = solRatio(p)
	}
	for _, wk := range e.workers {
		want := wk.scratch[:e.w.FileBytes]
		for _, path := range wk.live {
			got, err := wk.c.Read(path)
			fillContent(want, wk.seed, path)
			if err != nil {
				violations = append(violations, fmt.Sprintf("read back %s: %v", path, err))
			} else if !bytes.Equal(got, want) {
				violations = append(violations, fmt.Sprintf("read back %s: wrong bytes", path))
			}
		}
	}
	return violations, converge, ratio
}

func (e *benchEnv) close() error { return e.c.close() }

// usage is a snapshot of the process's resource counters.
type usage struct {
	mem runtime.MemStats
	cpu time.Duration
}

func takeUsage() usage {
	var u usage
	runtime.ReadMemStats(&u.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

// counters is what the benchmark reads from metrics.Default, the
// program's own registry, in one snapshot.
type counters struct {
	chunks    float64 // aurora_stream_chunks, both directions
	wire      float64 // bytes frames put on the loopback
	retries   float64 // dfs.client.retries
	failovers float64 // dfs.client.read_failover
}

func readCounters() counters {
	var c counters
	snap := metrics.Default.Snapshot()
	for _, p := range snap.Counters {
		switch p.Name {
		case "aurora_stream_chunks":
			c.chunks += float64(p.Value)
		case "aurora_stream_bytes":
			// Stream frames are counted at both ends; take the sender's.
			if len(p.Labels) == 1 && p.Labels[0].Value == "send" {
				c.wire += float64(p.Value)
			}
		case "dfs.client.retries":
			c.retries += float64(p.Value)
		case "dfs.client.read_failover":
			c.failovers += float64(p.Value)
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == "aurora_rpc_request_bytes" || h.Name == "aurora_rpc_response_bytes" {
			c.wire += h.Hist.Sum
		}
	}
	return c
}

// since returns how much every counter grew from before to c.
func (c counters) since(before counters) counters {
	return counters{
		chunks: c.chunks - before.chunks, wire: c.wire - before.wire,
		retries: c.retries - before.retries, failovers: c.failovers - before.failovers,
	}
}

// run executes one workload once and returns its report. An error means
// the run could not be carried out; wrong results are reported through
// Correct, Failed and Violations instead.
func run(cfg runConfig) (*report, error) {
	w := cfg.W
	rep := &report{
		Workload: w.Name, Seed: cfg.Seed, Trace: cfg.Trace,
		Seconds: cfg.Seconds.Seconds(), Config: w, Env: readEnv(), Metrics: metricSet{},
	}
	hash, err := w.planHash(cfg.Seed, planHashOps)
	if err != nil {
		return nil, err
	}
	rep.PlanHash = fmt.Sprintf("%016x", hash)
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: output dir: %w", err)
	}
	scratch, err := os.MkdirTemp(cfg.OutDir, "tmp-")
	if err != nil {
		return nil, fmt.Errorf("bench: scratch dir: %w", err)
	}
	defer func() {
		//lint:ignore errcheck scratch cleanup; leftovers are under the ignored output dir
		_ = os.RemoveAll(scratch)
	}()

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	var env *benchEnv
	for i := 0; i < cfg.SetupReps; i++ {
		start := time.Now()
		e, err := setUp(cfg, scratch, tr)
		if err != nil {
			return nil, err
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
		if i < cfg.SetupReps-1 {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("bench: tear down set-up %d: %w", i, err)
			}
			continue
		}
		env = e
	}
	defer func() {
		//lint:ignore errcheck the run is over; a close error changes no result
		_ = env.close()
	}()

	phases := []*phase{}
	warm, err := env.load(cfg.Warmup)
	if err != nil {
		return nil, err
	}
	phases = append(phases, warm)

	// A traced run first measures the same cluster untraced, so the cost
	// of tracing and the chunks moved per byte can be compared.
	var base *phase
	var baseMoved counters
	if cfg.Trace {
		c0 := readCounters()
		if base, err = env.load(cfg.Seconds / 3); err != nil {
			return nil, err
		}
		baseMoved = readCounters().since(c0)
		phases = append(phases, base)
		env.setTraced(true)
	}

	c0, u0 := readCounters(), takeUsage()
	timed, err := env.load(cfg.Seconds)
	if err != nil {
		return nil, err
	}
	u1, moved := takeUsage(), readCounters().since(c0)
	phases = append(phases, timed)
	var spans []span
	var accessed map[core.BlockID]int64
	if cfg.Trace {
		env.setTraced(false)
		spans = tr.rec.take()
		// Taken now, while the usage monitor's window still holds the
		// timed phase: these are the keys the popularity probes replay.
		accessed = env.c.nn.PopularitySnapshot()
	}

	periods := timed.Periods
	if w.OptimizeEvery == 0 {
		epi, err := env.epilogue(cfg.EpiloguePeriods)
		if err != nil {
			return nil, err
		}
		phases = append(phases, epi)
		periods = epi.Periods
	}
	rep.Periods = periods
	violations, converge, ratio := env.verify()

	if cfg.Trace && timed.Bytes > 0 && base.Bytes > 0 {
		// Streaming-path guard: a traced client that fell back to
		// one-shot block RPCs would move no chunks at all.
		a, b := baseMoved.chunks/float64(base.Bytes), moved.chunks/float64(timed.Bytes)
		if math.Abs(a-b) > 1e-6*a {
			violations = append(violations, fmt.Sprintf(
				"traced run moved %.6g stream chunks per user byte, untraced %.6g: tracing changed the data path", b, a))
		}
	}
	late := summarize(timed.LateMs)
	if late.P50 > 1 {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf(
			"open-loop generator woke %.3f ms late at the median (p95 %.3f ms): latencies carry the generator's own delay", late.P50, late.P95))
	}

	for _, p := range phases {
		rep.Attempted += p.Attempted
		rep.Failed += p.Failed
		if rep.FirstError == "" && p.FirstErr != nil {
			rep.FirstError = classify(p.FirstErr)
		}
	}
	rep.Failed += len(violations)
	rep.Attempted += len(violations)
	rep.Violations = violations
	rep.Correct = rep.Failed == 0
	lat := summarize(timed.LatMs)
	rep.Samples = lat.N

	m := rep.Metrics
	if !cfg.Trace {
		// An open loop completes what it is offered: its rate is the plain
		// mean, below the offered one only if a backlog outlived the phase.
		rate := timed.windowRate()
		if w.Rate > 0 {
			rate = timed.meanRate()
		}
		m.set("setup_s", median(rep.SetupS), "s")
		m.set("ops_per_s", rate, "1/s")
		m.set("lat_p50_ms", lat.P50, "ms")
		m.set("within_limit_frac", float64(timed.Within)/float64(max(timed.Attempted, 1)), "fraction")
		m.set("optimize_sol_ratio", ratio, "ratio")
		return rep, nil
	}

	lm := layerInputs{
		w: w, timed: timed, base: base, lat: lat, late: late, spans: aggregate(spans),
		periods: periods, converge: converge, ratio: ratio, moved: moved,
		before: u0, after: u1, failed: rep.Failed, attempted: rep.Attempted,
		accessed: accessed,
	}
	lm.moves, lm.replicates, lm.deletes = env.c.nn.MovementStats()
	if err := layerMetrics(m, lm, env, scratch, !cfg.SkipProbes); err != nil {
		return nil, err
	}
	if err := writeSpans(spanPath(cfg), spans); err != nil {
		return nil, err
	}
	return rep, nil
}

// planHashOps is how many operations of each worker's plan the recorded
// hash covers.
const planHashOps = 4096

// classify names the errors the connection-churn hazard produces, so a
// failed run says why: proto.Call dials once per RPC, and a box that
// runs out of ephemeral ports fails the dial, not the request.
func classify(err error) string {
	switch {
	case errors.Is(err, syscall.EADDRNOTAVAIL):
		return "EADDRNOTAVAIL (ephemeral ports exhausted; see env.port_range and env.tcp_tw_reuse): " + err.Error()
	case strings.Contains(err.Error(), "proto: dial"):
		return "dial failure: " + err.Error()
	}
	return err.Error()
}
