package sched

import (
	"slices"
	"testing"

	"aurora/internal/core"
	"aurora/internal/topology"
	"aurora/internal/trace"
)

func TestFifoBasics(t *testing.T) {
	var q fifo
	if _, ok := q.peek(); ok {
		t.Error("empty fifo peeked a value")
	}
	q.push(1)
	q.push(2)
	q.push(3)
	if idx, ok := q.peek(); !ok || idx != 1 {
		t.Errorf("peek = %d/%v, want 1/true", idx, ok)
	}
	q.pop()
	if idx, ok := q.peek(); !ok || idx != 2 {
		t.Errorf("peek after pop = %d/%v, want 2/true", idx, ok)
	}
	q.pop()
	q.pop()
	if _, ok := q.peek(); ok {
		t.Error("drained fifo peeked a value")
	}
}

func TestFifoCompaction(t *testing.T) {
	var q fifo
	const n = 20000
	for i := 0; i < n; i++ {
		q.push(i)
	}
	for i := 0; i < n; i++ {
		idx, ok := q.peek()
		if !ok || idx != i {
			t.Fatalf("peek %d = %d/%v", i, idx, ok)
		}
		q.pop()
	}
	// Compaction must have shrunk the retained prefix.
	if len(q.items) > n/2 {
		t.Errorf("fifo never compacted: %d items retained", len(q.items))
	}
}

func TestFifoPendingLive(t *testing.T) {
	r := &replay[int]{arena: []task[int]{{done: true}, {done: true}, {done: false}}}
	var q fifo
	q.push(0)
	q.push(1)
	q.push(2)
	if !r.live(&q) {
		t.Fatal("live task not found past tombstones")
	}
	if idx, _ := q.peek(); idx != 2 {
		t.Errorf("peek after live = %d, want 2 (tombstones skipped)", idx)
	}
	r.arena[2].done = true
	if r.live(&q) {
		t.Error("all-done queue reported live tasks")
	}
}

// replayHost serves tasks whose input is the fixed list of machines
// holding its block, and records launches and epochs.
type replayHost struct {
	holders  map[int64][]topology.MachineID // per job
	launches []Assignment
	epochs   []int64
	served   Level // when set, every launch reports this level
}

func (h *replayHost) Tasks(j trace.Job) ([][]topology.MachineID, error) {
	ins := make([][]topology.MachineID, len(j.Blocks))
	for i := range ins {
		ins[i] = h.holders[j.ID]
	}
	return ins, nil
}
func (h *replayHost) Holders(in []topology.MachineID) []topology.MachineID { return in }
func (h *replayHost) Holds(in []topology.MachineID, m topology.MachineID) bool {
	return slices.Contains(in, m)
}
func (h *replayHost) Launch(_ []topology.MachineID, a Assignment, _ int64) (Level, error) {
	h.launches = append(h.launches, a)
	if h.served != 0 {
		return h.served, nil
	}
	return a.Level, nil
}
func (h *replayHost) Epoch(now int64) error {
	h.epochs = append(h.epochs, now)
	return nil
}

// Three tasks of one job hold their block on machine 0 only, one slot
// per machine: the first runs node-local, the second falls back to
// machine 1 in the same rack (x1.5), the third to the other rack (x2).
// A second job arrives after two idle epoch boundaries.
func TestReplayLevelsDurationsAndIdleEpochs(t *testing.T) {
	cl, err := topology.Uniform(2, 2, 10, 1) // machines 0,1 rack 0; 2,3 rack 1
	if err != nil {
		t.Fatal(err)
	}
	h := &replayHost{holders: map[int64][]topology.MachineID{1: {0}, 2: {3}}}
	jobs := []trace.Job{
		{ID: 1, Arrival: 0, Blocks: make([]core.BlockID, 3), TaskDuration: 10},
		{ID: 2, Arrival: 250, Blocks: make([]core.BlockID, 1), TaskDuration: 5},
	}
	res, err := Replay[[]topology.MachineID](cl, jobs, 100, h)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	wantLaunches := []Assignment{{0, NodeLocal}, {1, RackLocal}, {2, Remote}, {3, NodeLocal}}
	if !slices.Equal(h.launches, wantLaunches) {
		t.Errorf("launches = %v, want %v", h.launches, wantLaunches)
	}
	if !slices.Equal(h.epochs, []int64{100, 200}) {
		t.Errorf("epochs at %v, want [100 200]", h.epochs)
	}
	wantJobs := []JobStat{
		{ID: 1, Arrival: 0, Finish: 20, Tasks: 3, Remote: 2, Duration: 20},
		{ID: 2, Arrival: 250, Finish: 255, Tasks: 1, Duration: 5},
	}
	if !slices.Equal(res.Jobs, wantJobs) {
		t.Errorf("jobs = %+v, want %+v", res.Jobs, wantJobs)
	}
	if res.LocalTasks != 2 || res.RackLocalTasks != 1 || res.RemoteTasks != 1 || res.MakespanTicks != 255 {
		t.Errorf("counts = %+v", res)
	}
	if _, err := Replay[[]topology.MachineID](cl, jobs, 0, h); err == nil {
		t.Error("Replay accepted a zero-tick epoch")
	}
}

// A launch is counted, and slowed, at the level its host reports
// serving, not the level it was assigned: a node-local launch whose
// read was served from another rack is a remote task.
func TestReplayCountsServedLevel(t *testing.T) {
	cl, err := topology.Uniform(2, 2, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := &replayHost{holders: map[int64][]topology.MachineID{1: {0}}, served: Remote}
	jobs := []trace.Job{{ID: 1, Arrival: 0, Blocks: make([]core.BlockID, 1), TaskDuration: 10}}
	res, err := Replay[[]topology.MachineID](cl, jobs, 100, h)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !slices.Equal(h.launches, []Assignment{{0, NodeLocal}}) {
		t.Errorf("launches = %v, want one node-local on machine 0", h.launches)
	}
	if res.LocalTasks != 0 || res.RemoteTasks != 1 || res.TasksPerMachine[0] != 1 {
		t.Errorf("counts = %+v, want one remote task on machine 0", res)
	}
	want := []JobStat{{ID: 1, Arrival: 0, Finish: 20, Tasks: 1, Remote: 1, Duration: 20}}
	if !slices.Equal(res.Jobs, want) {
		t.Errorf("jobs = %+v, want %+v (x2 remote slowdown)", res.Jobs, want)
	}
}
