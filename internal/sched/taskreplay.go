package sched

import (
	"container/heap"
	"errors"
	"fmt"

	"aurora/internal/topology"
	"aurora/internal/trace"
)

// Locality slowdowns: a task that is not node-local runs this many
// times its node-local duration. The paper cites local tasks running
// ~2x faster than remote ones.
const (
	rackLocalSlowdown = 1.5
	remoteSlowdown    = 2.0
)

// Host is what a replay's caller supplies: the tasks a job brings, where
// their blocks live, what a launch does and the reconfiguration step. T
// is the caller's per-task input — a block ID in the simulator, a block
// location in the testbed.
type Host[T any] interface {
	// Tasks returns the inputs of job j's map tasks, one per task, as it
	// arrives.
	Tasks(j trace.Job) ([]T, error)
	// Holders returns the machines holding t's block: the replay asks
	// when the task is queued, to make it a local candidate on each, and
	// again when it heads the global queue and falls back.
	Holders(t T) []topology.MachineID
	// Holds reports whether machine m still holds t's block; a local
	// candidate whose replica moved away is dropped from m's queue.
	Holds(t T, m topology.MachineID) bool
	// Launch runs t at now on the assignment, whose slot the replay has
	// taken, and returns the level it achieved: a.Level, or worse when
	// the read was served from farther away than the assignment hoped.
	// The replay counts the task, and slows it, at that level.
	Launch(t T, a Assignment, now int64) (Level, error)
	// Epoch runs the reconfiguration step at the epoch boundary now.
	Epoch(now int64) error
}

// JobStat records one job's lifetime.
type JobStat struct {
	ID       int64
	Arrival  int64
	Finish   int64
	Tasks    int
	Remote   int // tasks that were not node-local
	Duration int64
}

// Result is what a replay counted.
type Result struct {
	Jobs            []JobStat // in completion order
	TasksPerMachine []int64
	LocalTasks      int64
	RackLocalTasks  int64
	RemoteTasks     int64
	// MakespanTicks is the time the last task completed.
	MakespanTicks int64
}

// TotalTasks returns the number of tasks executed.
func (r *Result) TotalTasks() int64 { return r.LocalTasks + r.RackLocalTasks + r.RemoteTasks }

// NonLocalTasks returns the paper's "remote tasks": everything that was
// not node-local.
func (r *Result) NonLocalTasks() int64 { return r.RackLocalTasks + r.RemoteTasks }

// RemoteFraction is NonLocalTasks / TotalTasks.
func (r *Result) RemoteFraction() float64 {
	total := r.TotalTasks()
	if total == 0 {
		return 0
	}
	return float64(r.NonLocalTasks()) / float64(total)
}

// Replay is the one discrete-event job replay. Jobs (sorted by arrival)
// enqueue one map task per input; each task occupies a slot of cl for
// its duration, scaled by its locality level. Every epochTicks ticks —
// also while the cluster idles between arrivals — the host's epoch step
// runs. Scheduling is delay scheduling (Zaharia et al., cited as [20] in
// the paper) over per-machine locality queues: a machine with free slots
// first launches the oldest tasks whose block it holds, and only when no
// machine can launch a local task does the oldest pending task fall back
// to the best level Pick finds. Immediate remote fallback is unstable
// under load surges — a backlog of 2x-cost remote tasks adds work
// exactly when the cluster is saturated and never drains. Replay
// returns once every job has finished.
func Replay[T any](cl *topology.Cluster, jobs []trace.Job, epochTicks int64, h Host[T]) (*Result, error) {
	if epochTicks <= 0 {
		return nil, fmt.Errorf("sched: epoch of %d ticks", epochTicks)
	}
	r := &replay[T]{
		h:       h,
		cl:      cl,
		slots:   NewSlots(cl),
		localQ:  make([]fifo, cl.NumMachines()),
		dirty:   make([]bool, cl.NumMachines()),
		running: make(map[int64]*running, len(jobs)),
		res:     &Result{TasksPerMachine: make([]int64, cl.NumMachines())},
	}
	if r.slots.TotalFree() == 0 {
		return nil, fmt.Errorf("%w: cluster has no task slots", ErrNoSlots)
	}
	if err := r.run(jobs, epochTicks); err != nil {
		return nil, err
	}
	return r.res, nil
}

// task is one pending map task. done marks it consumed (it may still be
// referenced by other queues as a tombstone).
type task[T any] struct {
	job  int64
	dur  int64
	in   T
	done bool
}

// running is a job with tasks not yet completed.
type running struct {
	JobStat
	left int
}

type replay[T any] struct {
	h     Host[T]
	cl    *topology.Cluster
	slots *Slots
	// Pending tasks live in an arena; the global FIFO and the
	// per-machine locality queues hold indices into it, with done flags
	// as tombstones (a task sits in up to k+1 queues).
	arena     []task[T]
	globalQ   fifo
	localQ    []fifo
	dirty     []bool
	dirtyList []topology.MachineID
	comps     completionHeap
	seq       int64
	now       int64
	running   map[int64]*running
	res       *Result
}

func (r *replay[T]) run(jobs []trace.Job, epochTicks int64) error {
	nextEpochAt := epochTicks
	arrIdx := 0
	for {
		// Determine the next event time.
		next := int64(-1)
		if t, ok := r.comps.peek(); ok {
			next = t
		}
		if arrIdx < len(jobs) && (next == -1 || jobs[arrIdx].Arrival < next) {
			next = jobs[arrIdx].Arrival
		}
		if r.comps.Len() == 0 && arrIdx == len(jobs) && !r.live(&r.globalQ) {
			return nil
		}
		if next == -1 {
			return errors.New("sched: replay deadlock: pending tasks with no events")
		}
		// Epoch boundaries fire even while idle between arrivals.
		if nextEpochAt <= next {
			r.now = nextEpochAt
			if err := r.h.Epoch(r.now); err != nil {
				return err
			}
			nextEpochAt += epochTicks
			if err := r.schedulePending(); err != nil {
				return err
			}
			continue
		}
		r.now = next

		// 1. Completions at now free slots.
		for r.comps.Len() > 0 && r.comps[0].at == r.now {
			c := heap.Pop(&r.comps).(completion)
			r.slots.Release(c.machine)
			r.markDirty(c.machine)
			js := r.running[c.job]
			if js.left--; js.left == 0 {
				js.Finish = r.now
				js.Duration = r.now - js.Arrival
				r.res.Jobs = append(r.res.Jobs, js.JobStat)
				delete(r.running, c.job)
			}
			r.res.MakespanTicks = r.now
		}
		// 2. Arrivals at now enqueue tasks.
		for arrIdx < len(jobs) && jobs[arrIdx].Arrival == r.now {
			j := jobs[arrIdx]
			arrIdx++
			ins, err := r.h.Tasks(j)
			if err != nil {
				return err
			}
			r.running[j.ID] = &running{JobStat: JobStat{ID: j.ID, Arrival: j.Arrival, Tasks: len(ins)}, left: len(ins)}
			for _, in := range ins {
				r.enqueue(task[T]{job: j.ID, dur: j.TaskDuration, in: in})
			}
		}
		// 3. Fill freed slots.
		if err := r.schedulePending(); err != nil {
			return err
		}
	}
}

func (r *replay[T]) markDirty(m topology.MachineID) {
	if !r.dirty[m] {
		r.dirty[m] = true
		r.dirtyList = append(r.dirtyList, m)
	}
}

// enqueue queues tk globally and as a local candidate on every current
// holder of its block. Replicas created later (mid-epoch
// replication-on-read, epoch reconfigurations) are still found by the
// head fallback, which asks the host again.
func (r *replay[T]) enqueue(tk task[T]) {
	idx := len(r.arena)
	r.arena = append(r.arena, tk)
	r.globalQ.push(idx)
	for _, m := range r.h.Holders(tk.in) {
		r.localQ[m].push(idx)
		r.markDirty(m)
	}
}

// live reports whether q holds an unconsumed task, popping tombstones
// off its head.
func (r *replay[T]) live(q *fifo) bool {
	for {
		idx, ok := q.peek()
		if !ok || !r.arena[idx].done {
			return ok
		}
		q.pop()
	}
}

// launch takes a's slot, runs the task and schedules its completion.
func (r *replay[T]) launch(idx int, a Assignment) error {
	tk := &r.arena[idx]
	tk.done = true
	if !r.slots.Acquire(a.Machine) {
		// Callers only launch onto free slots; treat failure as a bug.
		panic("sched: replay launched onto a machine without a free slot")
	}
	level, err := r.h.Launch(tk.in, a, r.now)
	if err != nil {
		return err
	}
	dur := tk.dur
	switch level {
	case NodeLocal:
		r.res.LocalTasks++
	case RackLocal:
		r.res.RackLocalTasks++
		dur = int64(float64(dur) * rackLocalSlowdown)
		r.running[tk.job].Remote++
	default:
		r.res.RemoteTasks++
		dur = int64(float64(dur) * remoteSlowdown)
		r.running[tk.job].Remote++
	}
	if dur < 1 {
		dur = 1
	}
	r.res.TasksPerMachine[a.Machine]++
	r.seq++
	heap.Push(&r.comps, completion{at: r.now + dur, seq: r.seq, machine: a.Machine, job: tk.job})
	return nil
}

// drainLocal launches pending tasks that are node-local to machine m
// (oldest first) while it has free slots.
func (r *replay[T]) drainLocal(m topology.MachineID) error {
	q := &r.localQ[m]
	for r.slots.Free(m) > 0 && r.live(q) {
		idx, _ := q.peek()
		q.pop()
		if !r.h.Holds(r.arena[idx].in, m) {
			continue // stale hint: the replica moved away
		}
		if err := r.launch(idx, Assignment{Machine: m, Level: NodeLocal}); err != nil {
			return err
		}
	}
	return nil
}

// schedulePending fills free slots: machines with fresh free slots or
// fresh local candidates first launch node-local work, and only when
// none can does the oldest pending task run at the best level still
// available.
func (r *replay[T]) schedulePending() error {
	for r.slots.TotalFree() > 0 {
		// Pass 1: machines marked dirty drain their local queues.
		progress := false
		for len(r.dirtyList) > 0 {
			m := r.dirtyList[0]
			r.dirtyList = r.dirtyList[1:]
			r.dirty[m] = false
			before := r.slots.Free(m)
			if err := r.drainLocal(m); err != nil {
				return err
			}
			if r.slots.Free(m) != before {
				progress = true
			}
		}
		if progress {
			continue
		}
		// Pass 2: the oldest pending task, placed over its block's
		// holders as they are now (they may have gained replicas since
		// it was queued, so this can still be node-local).
		if !r.live(&r.globalQ) {
			return nil
		}
		idx, _ := r.globalQ.peek()
		a, err := Pick(r.cl, r.slots, r.h.Holders(r.arena[idx].in))
		if err != nil {
			return nil // no free slot anywhere
		}
		r.globalQ.pop()
		if err := r.launch(idx, a); err != nil {
			return err
		}
	}
	return nil
}

// fifo is an index queue with O(1) amortized pop and periodic
// compaction.
type fifo struct {
	items []int
	pos   int
}

func (q *fifo) push(idx int) { q.items = append(q.items, idx) }

func (q *fifo) peek() (int, bool) {
	if q.pos >= len(q.items) {
		return 0, false
	}
	return q.items[q.pos], true
}

func (q *fifo) pop() {
	q.pos++
	if q.pos > 4096 && q.pos*2 > len(q.items) {
		q.items = append([]int(nil), q.items[q.pos:]...)
		q.pos = 0
	}
}

// completion is a scheduled task finish event.
type completion struct {
	at      int64
	seq     int64
	machine topology.MachineID
	job     int64
}

// completionHeap orders completions by (at, seq): ties finish in launch
// order.
type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h completionHeap) peek() (int64, bool) {
	if len(h) == 0 {
		return 0, false
	}
	return h[0].at, true
}
