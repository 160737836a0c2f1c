package experiments

import (
	"errors"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aurora/internal/dfs/proto"
	"aurora/internal/faultinject"
	"aurora/internal/metrics"
)

// tinySetup keeps the simulated experiments fast enough for the test
// suite while preserving the contention regime.
func tinySetup(seed uint64) Setup {
	s := DefaultSetup(seed)
	s.Racks = 3
	s.MachinesPerRack = 4
	s.Files = 50
	s.Hours = 3
	s.JobsPerHour = 800
	s.SlotsPerMachine = 6
	s.Epsilons = []float64{0.1, 0.8}
	s.BudgetExtraBlocks = 300
	return s
}

func TestSetupValidation(t *testing.T) {
	bad := tinySetup(1)
	bad.Files = 0
	if _, err := Fig3(bad); !errors.Is(err, ErrBadSetup) {
		t.Errorf("Fig3 bad setup err = %v, want ErrBadSetup", err)
	}
	empty := tinySetup(1)
	empty.Epsilons = nil
	if _, err := Fig4(empty); !errors.Is(err, ErrBadSetup) {
		t.Errorf("Fig4 empty sweep err = %v, want ErrBadSetup", err)
	}
}

func TestFig3Shape(t *testing.T) {
	fig, err := Fig3(tinySetup(11))
	if err != nil {
		t.Fatalf("Fig3: %v", err)
	}
	if len(fig.Rows) != 3 { // HDFS + 2 epsilons
		t.Fatalf("rows = %d, want 3", len(fig.Rows))
	}
	hdfs := fig.Rows[0]
	if hdfs.System != "HDFS" || hdfs.MovementsPerMachineHour != 0 {
		t.Errorf("HDFS row malformed: %+v", hdfs)
	}
	lowEps := fig.Rows[1]
	// Aurora at low epsilon balances at least as well as HDFS (within
	// toy-scale noise) and must not increase remote tasks.
	if lowEps.Jain < hdfs.Jain-0.005 {
		t.Errorf("Aurora eps=0.1 Jain %v well below HDFS %v", lowEps.Jain, hdfs.Jain)
	}
	// Remote-task counts at toy scale are single-digit noise; only guard
	// against a gross regression (the default-scale comparison lives in
	// TestFig5AuroraBeatsScarlett and the EXPERIMENTS.md campaign).
	if lowEps.RemoteTasksPerHour > hdfs.RemoteTasksPerHour+10 {
		t.Errorf("Aurora eps=0.1 remote %v far above HDFS %v", lowEps.RemoteTasksPerHour, hdfs.RemoteTasksPerHour)
	}
	// Movements decrease (weakly) with epsilon.
	if fig.Rows[2].MovementsPerMachineHour > fig.Rows[1].MovementsPerMachineHour {
		t.Errorf("moves grew with epsilon: %v -> %v",
			fig.Rows[1].MovementsPerMachineHour, fig.Rows[2].MovementsPerMachineHour)
	}
	if !strings.Contains(fig.String(), "Figure 3") {
		t.Error("render missing figure title")
	}
}

func TestFig4KeepsFeasibility(t *testing.T) {
	fig, err := Fig4(tinySetup(12))
	if err != nil {
		t.Fatalf("Fig4: %v", err)
	}
	// The simulator itself verifies rack feasibility after every run, so
	// reaching here means the constraint held; check the sweep shape.
	if len(fig.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(fig.Rows))
	}
	for _, r := range fig.Rows[1:] {
		if r.TotalTasks != fig.Rows[0].TotalTasks {
			t.Errorf("%s executed %d tasks, HDFS %d — same trace must give same tasks",
				r.System, r.TotalTasks, fig.Rows[0].TotalTasks)
		}
	}
}

func TestFig5AuroraBeatsScarlett(t *testing.T) {
	// The Scarlett comparison needs the default contention regime —
	// at toy scale remote-task counts are single-digit noise.
	s := DefaultSetup(42)
	s.Epsilons = []float64{0.1, 0.8}
	fig, err := Fig5(s)
	if err != nil {
		t.Fatalf("Fig5: %v", err)
	}
	scar := fig.Rows[0]
	if scar.System != "Scarlett" || scar.Replications == 0 {
		t.Fatalf("Scarlett row malformed: %+v", scar)
	}
	best := fig.Rows[1]
	for _, r := range fig.Rows[2:] {
		if r.RemoteTasksPerHour < best.RemoteTasksPerHour {
			best = r
		}
	}
	if best.RemoteTasksPerHour > scar.RemoteTasksPerHour {
		t.Errorf("best Aurora remote %v > Scarlett %v (paper: Aurora reduces by up to 26.9%%)",
			best.RemoteTasksPerHour, scar.RemoteTasksPerHour)
	}
	sys, pct, err := fig.Headline()
	if err != nil {
		t.Fatalf("Headline: %v", err)
	}
	if !strings.HasPrefix(sys, "Aurora") || pct < 0 {
		t.Errorf("Headline = %s %.1f%%, want Aurora with non-negative reduction", sys, pct)
	}
}

func TestFig6Testbed(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed spins up a real TCP cluster; skipped in -short")
	}
	setup := DefaultTestbedSetup(21)
	setup.Files = 12
	setup.Jobs = 120
	res, err := Fig6(setup)
	if err != nil {
		t.Fatalf("Fig6: %v", err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	hdfs, scar, aur := res.Rows[0], res.Rows[1], res.Rows[2]
	for _, r := range res.Rows {
		if r.LocalTasks+r.RemoteTasks == 0 {
			t.Fatalf("%s executed no tasks", r.System)
		}
		if r.BytesRead == 0 {
			t.Fatalf("%s read no data over the wire", r.System)
		}
	}
	// Panel (a): dynamic replication beats static HDFS on locality, and
	// Aurora's placement is at least as local as Scarlett's.
	if aur.LocalFraction < hdfs.LocalFraction {
		t.Errorf("Aurora locality %.3f < HDFS %.3f", aur.LocalFraction, hdfs.LocalFraction)
	}
	if aur.LocalFraction < scar.LocalFraction {
		t.Errorf("Aurora locality %.3f < Scarlett %.3f", aur.LocalFraction, scar.LocalFraction)
	}
	if scar.Replicates == 0 || aur.Replicates == 0 {
		t.Error("dynamic systems issued no replication commands")
	}
	if hdfs.Deletes != 0 {
		t.Errorf("HDFS issued %d delete commands, want 0", hdfs.Deletes)
	}
	// Panel (c): Aurora's block movements were measured.
	if len(aur.MoveDurations) == 0 {
		t.Error("no movement durations recorded for Aurora")
	}
	out := res.String()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "Aurora") {
		t.Errorf("render malformed:\n%s", out)
	}
}

// Figure 6 replays from its seed: each system's cluster runs on the
// replay's clock, so two runs of one setup schedule every task on the
// same node and agree on locality, bytes read, every job's duration,
// the replicate and delete command counts and every movement time.
// Under faults the injector steps with the cluster, so both runs apply
// the same events at the same ticks; the third setup's crash window
// holds an epoch, whose convergence waits for the crash's detection.
// A stepped cluster has no report racing an arrival report, so the
// fault-free runs resync no report.
func TestFig6Deterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed spins up a real TCP cluster; skipped in -short")
	}
	plain := DefaultTestbedSetup(21)
	plain.Files = 12
	plain.Jobs = 120
	faulted := faultedTestbedSetup(t)
	spanning := faultedTestbedSetup(t)
	spanning.EpochTicks = 100
	sch, err := faultinject.ParseSchedule("crash:1@90s;recover:1@190s")
	if err != nil {
		t.Fatal(err)
	}
	spanning.FaultSchedule = sch
	for _, setup := range []TestbedSetup{plain, faulted, spanning} {
		var runs [2]*Fig6Result
		var applied [2]map[faultinject.Kind]int64
		resyncs := metrics.Default.CounterValues()["dfs.namenode.report_resync"]
		for i := range runs {
			before := faultCounts()
			res, err := Fig6(setup)
			if err != nil {
				t.Fatalf("Fig6 run %d (%d fault events): %v", i, len(setup.FaultSchedule), err)
			}
			runs[i], applied[i] = res, faultCountsSince(before)
		}
		if got := metrics.Default.CounterValues()["dfs.namenode.report_resync"] - resyncs; setup.FaultSchedule == nil && got != 0 {
			t.Errorf("fault-free runs resynced %d reports, want 0", got)
		}
		if !maps.Equal(applied[0], applied[1]) {
			t.Errorf("fault events applied: %v then %v", applied[0], applied[1])
		}
		for i, a := range runs[0].Rows {
			b := runs[1].Rows[i]
			if a.LocalTasks != b.LocalTasks || a.RemoteTasks != b.RemoteTasks || a.BytesRead != b.BytesRead {
				t.Errorf("%s: local/remote/bytes %d/%d/%d then %d/%d/%d", a.System,
					a.LocalTasks, a.RemoteTasks, a.BytesRead, b.LocalTasks, b.RemoteTasks, b.BytesRead)
			}
			if a.Replicates != b.Replicates || a.Deletes != b.Deletes {
				t.Errorf("%s: replicate/delete commands %d/%d then %d/%d", a.System, a.Replicates, a.Deletes, b.Replicates, b.Deletes)
			}
			if !maps.Equal(a.JobDurations, b.JobDurations) {
				t.Errorf("%s: job durations differ between runs:\n%v\n%v", a.System, a.JobDurations, b.JobDurations)
			}
			if !slices.Equal(a.MoveDurations, b.MoveDurations) || a.MaxLead != b.MaxLead {
				t.Errorf("%s: movement times or lead differ between runs:\n%v (lead %v)\n%v (lead %v)", a.System,
					a.MoveDurations, a.MaxLead, b.MoveDurations, b.MaxLead)
			}
		}
	}
}

// faultedTestbedSetup is a small testbed under a crash, a latency spike
// and a dropped-heartbeat window, all in replay time and all before the
// last of its 80 jobs arrives (at tick 208).
func faultedTestbedSetup(t *testing.T) TestbedSetup {
	t.Helper()
	setup := DefaultTestbedSetup(33)
	setup.Nodes = 6
	setup.Files = 8
	setup.Jobs = 80
	sch, err := faultinject.RandomSchedule(33, faultinject.ScheduleConfig{
		Nodes:          setup.Nodes,
		Crashes:        1,
		Slows:          1,
		HeartbeatDrops: 1,
		Start:          20 * time.Second,
		Spacing:        40 * time.Second,
		Downtime:       100 * time.Second,
		SlowLatency:    5 * time.Millisecond,
		SlowDur:        60 * time.Second,
		DropDur:        60 * time.Second,
	})
	if err != nil {
		t.Fatalf("RandomSchedule: %v", err)
	}
	setup.FaultSchedule = sch
	return setup
}

// faultCounts reads the per-kind applied-event counters.
func faultCounts() map[faultinject.Kind]int64 {
	counters := metrics.Default.CounterValues()
	out := make(map[faultinject.Kind]int64)
	for _, k := range []faultinject.Kind{faultinject.Crash, faultinject.Recover, faultinject.Slow, faultinject.DropHeartbeats, faultinject.Corrupt} {
		out[k] = counters["faultinject."+string(k)]
	}
	return out
}

// faultCountsSince is faultCounts minus an earlier reading.
func faultCountsSince(before map[faultinject.Kind]int64) map[faultinject.Kind]int64 {
	now := faultCounts()
	for k := range now {
		now[k] -= before[k]
	}
	return now
}

// Every system's run plays the whole schedule: the replay steps the
// cluster, and its injector with it, past the last event, so each
// kind's counter rises by three times that kind's events.
func TestFig6UnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed spins up a real TCP cluster; skipped in -short")
	}
	setup := faultedTestbedSetup(t)
	want := make(map[faultinject.Kind]int64)
	for k := range faultCounts() {
		want[k] = 0
	}
	for _, ev := range setup.FaultSchedule {
		want[ev.Kind] += 3
	}
	before := faultCounts()
	res, err := Fig6(setup)
	if err != nil {
		t.Fatalf("Fig6 under faults: %v", err)
	}
	for _, r := range res.Rows {
		if r.LocalTasks+r.RemoteTasks == 0 || r.BytesRead == 0 {
			t.Fatalf("%s did no work under faults: %+v", r.System, r)
		}
	}
	if got := faultCountsSince(before); !maps.Equal(got, want) {
		t.Errorf("fault events applied over the three runs = %v, want %v", got, want)
	}
	// An oversubscribed schedule must be rejected up front.
	bad := setup
	bad.FaultSchedule = faultinject.Schedule{{Kind: faultinject.Crash, Node: setup.Nodes}}
	if _, err := Fig6(bad); !errors.Is(err, ErrBadSetup) {
		t.Errorf("Fig6 out-of-range fault node err = %v, want ErrBadSetup", err)
	}
}

// A faulted run asks the namenode for locations once per job arrival
// and never again: a read that fails tries the block's other holders,
// then re-reads the namenode's placement, and neither records an access
// in its usage monitor.
func TestFig6RetriesRecordNoAccess(t *testing.T) {
	if testing.Short() {
		t.Skip("testbed spins up a real TCP cluster; skipped in -short")
	}
	setup := faultedTestbedSetup(t)
	tr, err := testbedTrace(setup)
	if err != nil {
		t.Fatal(err)
	}
	var lookups atomic.Int64
	count := func(call proto.CallFunc) proto.CallFunc {
		return func(addr string, req *proto.Message, payload []byte, timeout time.Duration) (*proto.Message, []byte, error) {
			if req.Type == proto.MsgGetLocations {
				lookups.Add(1)
			}
			return call(addr, req, payload, timeout)
		}
	}
	blocked := metrics.Default.CounterValues()["faultinject.blocked_stream"]
	if _, err := runTestbedSystem(setup, tr, "Aurora", count); err != nil {
		t.Fatalf("Aurora under faults: %v", err)
	}
	if metrics.Default.CounterValues()["faultinject.blocked_stream"] == blocked {
		t.Fatal("no read met a fault; the schedule tests nothing")
	}
	if got := lookups.Load(); got != int64(len(tr.Jobs)) {
		t.Errorf("get_locations calls = %d, want one per job arrival (%d)", got, len(tr.Jobs))
	}
}
