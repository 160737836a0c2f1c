package main

import (
	"runtime"
	"sync"
	"time"

	"aurora/internal/core"
)

// phase is what one stretch of load produced. Latencies are in
// milliseconds; a failed operation has no latency sample and counts
// against the limit.
type phase struct {
	Elapsed   time.Duration
	Attempted int
	Failed    int
	Within    int // succeeded within the workload's latency limit
	Bytes     int64
	LatMs     []float64
	LateMs    []float64       // open loop: how late the generator woke for a due time
	DoneAt    []time.Duration // when each successful operation completed, from the phase's start
	DueAt     []time.Time     // when each successful operation was due, parallel to LatMs
	Periods   []period
	FirstErr  error
}

// period is one NameNode.OptimizeNow run during a phase.
type period struct {
	start, end   time.Time
	WallMs       float64
	Replications int
	Iterations   int
	Movements    int
	Evictions    int
}

// add records one executed operation. due is when it should have
// started: the call's own start in a closed loop, the schedule's instant
// in an open one.
func (p *phase) add(out outcome, due time.Time, limit time.Duration, began time.Time) {
	lat := out.end.Sub(due)
	p.Attempted++
	if out.err != nil {
		p.Failed++
		if p.FirstErr == nil {
			p.FirstErr = out.err
		}
		return
	}
	if lat <= limit {
		p.Within++
	}
	ms := float64(lat) / 1e6
	p.LatMs = append(p.LatMs, ms)
	p.Bytes += out.bytes
	p.DoneAt = append(p.DoneAt, out.end.Sub(began))
	p.DueAt = append(p.DueAt, due)
}

// stalled returns the latencies of the operations that were due while
// an optimizer period was running, that is, while the namenode's lock
// was held for the whole of it.
func (p *phase) stalled() []float64 {
	var lat []float64
	for i, due := range p.DueAt {
		for _, per := range p.Periods {
			if !due.Before(per.start) && due.Before(per.end) {
				lat = append(lat, p.LatMs[i])
				break
			}
		}
	}
	return lat
}

// windowRate is the phase's throughput as the median, over its whole
// one-second windows, of operations completed per second. A burst of
// stolen CPU on a shared box slows a few windows and leaves the median
// alone; a mean over the whole phase would carry it.
func (p *phase) windowRate() float64 {
	n := int(p.Elapsed / time.Second)
	if n < 3 {
		return p.meanRate()
	}
	counts := make([]float64, n)
	for _, at := range p.DoneAt {
		if i := int(at / time.Second); i >= 0 && i < n {
			counts[i]++
		}
	}
	return median(counts)
}

// meanRate is operations completed per second over the whole phase.
func (p *phase) meanRate() float64 { return float64(len(p.DoneAt)) / p.Elapsed.Seconds() }

func (p *phase) merge(q *phase) {
	p.Attempted += q.Attempted
	p.Failed += q.Failed
	p.Within += q.Within
	p.Bytes += q.Bytes
	p.LatMs = append(p.LatMs, q.LatMs...)
	p.LateMs = append(p.LateMs, q.LateMs...)
	p.DoneAt = append(p.DoneAt, q.DoneAt...)
	p.DueAt = append(p.DueAt, q.DueAt...)
	if p.FirstErr == nil {
		p.FirstErr = q.FirstErr
	}
}

func newPhase() *phase { return &phase{} }

// runClosed drives every worker in its own closed loop for d: the next
// operation is sent when the previous one completed.
func runClosed(workers []*worker, d time.Duration) *phase {
	parts := make([]*phase, len(workers))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			p := newPhase()
			for time.Now().Before(deadline) {
				o := wk.next()
				out := wk.exec(o)
				p.add(out, out.start, wk.w.Limit, start)
			}
			parts[i] = p
		}(i, wk)
	}
	wg.Wait()
	total := newPhase()
	for _, p := range parts {
		total.merge(p)
	}
	total.Elapsed = time.Since(start)
	return total
}

// job is one open-loop operation handed to an in-flight slot.
type job struct {
	o   op
	due time.Time
}

// runOpen offers rate operations per second for d from one dispatcher,
// with at most len(workers) in flight. Each operation is timed from the
// instant it was due, so a stall charges every request that had to wait
// behind it, not only the one that hit it.
func runOpen(workers []*worker, next func() op, rate float64, d time.Duration) *phase {
	parts := make([]*phase, len(workers))
	jobs := make(chan job)
	start := time.Now()
	var wg sync.WaitGroup
	for i, wk := range workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			p := newPhase()
			for j := range jobs {
				out := wk.exec(j.o)
				p.add(out, j.due, wk.w.Limit, start)
			}
			parts[i] = p
		}(i, wk)
	}
	total := newPhase()
	gap := time.Duration(float64(time.Second) / rate)
	n := int(d / gap)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * gap)
		if time.Now().Before(due) {
			waitUntil(due)
			// Only a dispatcher that was idle before the due time can be
			// late on its own account; one still handing over the
			// previous job is waiting for the system, which the
			// operation's latency already shows.
			total.LateMs = append(total.LateMs, float64(time.Since(due))/1e6)
		}
		jobs <- job{o: next(), due: due}
	}
	close(jobs)
	wg.Wait()
	for _, p := range parts {
		total.merge(p)
	}
	total.Elapsed = time.Since(start)
	return total
}

// sleepSlack is how much earlier than asked a sleeping goroutine has to
// be woken to be on time: the runtime parks an idle thread in a poll
// whose timeout counts whole milliseconds, and the virtual CPU under it
// has to be woken too.
const sleepSlack = 2 * time.Millisecond

// waitUntil returns at t. It sleeps through most of the wait and
// yields in a loop through the last sleepSlack of it, so the dispatcher
// is on time to the microsecond while every runnable goroutine of the
// program still goes first.
func waitUntil(t time.Time) {
	if d := time.Until(t) - sleepSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// optimizerOptions are the Algorithm-5 settings of every period the
// bench runs: epsilon 0.1, rack-aware, and a replication budget of
// three replicas per block plus a tenth of the blocks to spend on hot
// ones.
func optimizerOptions(blocks int) core.OptimizerOptions {
	return core.OptimizerOptions{
		Epsilon:             0.1,
		RackAware:           true,
		ReplicationBudget:   replication*blocks + blocks/10 + 8,
		MaxReplicationMoves: 64,
		MaxSearchIterations: 20000,
	}
}

// optimizeOnce runs one period against the live namenode and times it.
// The wall time is also how long the namenode held its lock.
func optimizeOnce(c *cluster, blocks int) (period, error) {
	start := time.Now()
	res, err := c.nn.OptimizeNow(optimizerOptions(blocks))
	end := time.Now()
	return period{
		start: start, end: end,
		WallMs:       float64(end.Sub(start)) / 1e6,
		Replications: res.Replications,
		Iterations:   res.Search.Iterations,
		Movements:    res.Search.Movements,
		Evictions:    res.Evictions,
	}, err
}

// optimizeEvery runs periods on a fixed schedule until stop is closed.
// A period that overruns the schedule delays the next one; none is run
// twice to catch up.
func optimizeEvery(c *cluster, blocks int, every time.Duration, stop <-chan struct{}) ([]period, error) {
	var periods []period
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return periods, nil
		case <-tick.C:
			p, err := optimizeOnce(c, blocks)
			if err != nil {
				return periods, err
			}
			periods = append(periods, p)
		}
	}
}
