package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"aurora/internal/baseline"
	"aurora/internal/core"
	"aurora/internal/dfs"
	"aurora/internal/dfs/client"
	"aurora/internal/dfs/datanode"
	"aurora/internal/dfs/namenode"
	"aurora/internal/dfs/proto"
	"aurora/internal/faultinject"
	"aurora/internal/metrics"
	"aurora/internal/retrypolicy"
	"aurora/internal/sched"
	"aurora/internal/topology"
	"aurora/internal/trace"
)

// TestbedSetup parameterizes the Figure 6 experiment: a real mini-DFS
// cluster on loopback (the paper used a 10-node Hadoop 2.5.2 cluster)
// driven by a SWIM-like workload, comparing default HDFS, Scarlett and
// Aurora at epsilon = 0.8 — the value the paper's simulations suggested.
type TestbedSetup struct {
	Nodes        int
	Racks        int
	SlotsPerNode int
	Files        int
	Jobs         int
	JobsPerHour  float64
	BlockBytes   int
	// EpochTicks is the reconfiguration period in virtual ticks
	// (1 tick = 1 virtual second; the paper reconfigures hourly).
	EpochTicks int64
	Epsilon    float64
	// BudgetExtraBlocks is the replication budget headroom beyond the
	// 3x minimum.
	BudgetExtraBlocks int
	Seed              uint64
	// FaultSchedule, when non-nil, runs the workload under fault
	// injection: each system's cluster gets its own injector applying
	// this schedule, started after the dataset has converged so churn
	// hits the replay phase. Task reads and client RPCs then retry with
	// backoff until the cluster heals. See internal/faultinject.
	FaultSchedule faultinject.Schedule
	// Shards is every system's namenode shard count (values below 2
	// keep the classic unpartitioned period): Aurora's reconfiguration
	// then runs one optimizer period per shard concurrently.
	Shards int
	// Predictor selects each system's namenode popularity forecaster
	// ("ewma" or "seasonal", see popularity.New); empty/reactive keeps
	// raw window counts.
	Predictor string
}

// DefaultTestbedSetup mirrors the paper's testbed shape at test speed.
func DefaultTestbedSetup(seed uint64) TestbedSetup {
	return TestbedSetup{
		Nodes:             10,
		Racks:             2,
		SlotsPerNode:      3,
		Files:             24,
		Jobs:              400,
		JobsPerHour:       1200,
		BlockBytes:        4 << 10,
		EpochTicks:        300, // 5 virtual minutes per epoch
		Epsilon:           0.8,
		BudgetExtraBlocks: 60,
		Seed:              seed,
	}
}

// TestbedRow is one system's outcome: panel (a) locality, the per-job
// durations feeding panel (b), and the movement statistics feeding
// panel (c).
type TestbedRow struct {
	System        string
	LocalTasks    int64
	RemoteTasks   int64
	LocalFraction float64
	JobDurations  map[int64]int64 // job ID -> virtual ticks
	MoveDurations []time.Duration // real wall-clock replica transfers
	Replicates    int64
	Deletes       int64
	BytesRead     int64
}

// Fig6Result aggregates the three systems plus the paper's derived
// series.
type Fig6Result struct {
	Rows []TestbedRow // HDFS, Scarlett, Aurora
	// SpeedupVsScarlett is (T_scarlett - T_aurora)/T_scarlett per job
	// (panel b).
	SpeedupVsScarlett []float64
	Notes             string
}

// Fig6 runs the testbed experiment: the same workload against default
// HDFS, Scarlett and Aurora on a real namenode/datanode cluster. The
// systems run one after another: each spins up a live TCP cluster whose
// wall-clock movement timings feed panel (c), so concurrent runs would
// perturb each other's measurements.
func Fig6(s TestbedSetup) (*Fig6Result, error) {
	if s.Nodes <= 0 || s.Racks <= 0 || s.Files <= 0 || s.Jobs <= 0 {
		return nil, fmt.Errorf("%w: %+v", ErrBadSetup, s)
	}
	if err := s.FaultSchedule.Validate(s.Nodes); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadSetup, err)
	}
	hours := int(float64(s.Jobs)/s.JobsPerHour) + 1
	cfg := trace.SWIMLike(s.Seed, s.Files, hours, s.JobsPerHour)
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if len(tr.Jobs) > s.Jobs {
		tr.Jobs = tr.Jobs[:s.Jobs]
	}

	systems := []string{"HDFS", "Scarlett", "Aurora"}
	res := &Fig6Result{Rows: make([]TestbedRow, len(systems))}
	for i, system := range systems {
		row, err := runTestbedSystem(s, tr, system)
		if err != nil {
			return nil, fmt.Errorf("experiments: testbed %s: %w", system, err)
		}
		res.Rows[i] = row
	}
	scar, aur := res.Rows[1], res.Rows[2]
	for id, ts := range scar.JobDurations {
		ta, ok := aur.JobDurations[id]
		if !ok || ts == 0 {
			continue
		}
		res.SpeedupVsScarlett = append(res.SpeedupVsScarlett, float64(ts-ta)/float64(ts))
	}
	sort.Float64s(res.SpeedupVsScarlett)
	res.Notes = fmt.Sprintf("%d nodes x %d slots over %d racks, %d files, %d jobs, epsilon=%.1f",
		s.Nodes, s.SlotsPerNode, s.Racks, s.Files, len(tr.Jobs), s.Epsilon)
	return res, nil
}

// runTestbedSystem spins up a real cluster, loads the dataset, replays
// the workload in virtual time through the simulator's job replay (with
// real block reads on the data path) and reconfigures at every epoch
// according to the system under test.
func runTestbedSystem(s TestbedSetup, tr *trace.Trace, system string) (TestbedRow, error) {
	row := TestbedRow{System: system, JobDurations: make(map[int64]int64)}

	var placer namenode.Placer
	if system == "Aurora" {
		placer = namenode.AuroraPlacer{}
	} // others use the default HDFS random placer

	// Under fault injection every process routes its RPCs through the
	// injector; without it they use the plain transport.
	var inj *faultinject.Injector
	taskRetry := retrypolicy.Policy{MaxAttempts: 2} // one location-refresh retry
	if s.FaultSchedule != nil {
		inj = faultinject.New(s.FaultSchedule)
		taskRetry = retrypolicy.Policy{
			MaxAttempts: 40,
			BaseDelay:   25 * time.Millisecond,
			MaxDelay:    250 * time.Millisecond,
			Multiplier:  2,
			Jitter:      0.2,
		}
		defer inj.Stop()
	}

	cl, err := dfs.Start(dfs.Spec{
		Nodes: s.Nodes,
		NameNode: namenode.Config{
			Racks:              s.Racks,
			DefaultReplication: 3,
			DefaultMinRacks:    2,
			BlockSize:          s.BlockBytes,
			DeadTimeout:        5 * time.Second,
			ReconcileInterval:  15 * time.Millisecond,
			WindowBucket:       time.Minute,
			WindowBuckets:      5,
			Placer:             placer,
			Seed:               s.Seed,
			Shards:             s.Shards,
			Predictor:          s.Predictor,
		},
		DataNode: datanode.Config{
			CapacityBlocks:    (tr.NumBlocks()*3+s.BudgetExtraBlocks)*2/s.Nodes + 8,
			HeartbeatInterval: 30 * time.Millisecond,
		},
		Faults: inj,
	})
	if err != nil {
		return row, err
	}
	defer cl.Close()
	nn := cl.NameNode

	// Load the dataset.
	clientOpts := []client.Option{client.WithBlockSize(s.BlockBytes), client.WithSeed(s.Seed)}
	if inj != nil {
		clientOpts = append(clientOpts, client.WithCall(inj.CallFrom(faultinject.External)),
			client.WithRetry(taskRetry), client.WithOpenStream(inj.StreamFrom(faultinject.External)))
	}
	c := client.New(nn.Addr(), clientOpts...)
	rng := rand.New(rand.NewPCG(s.Seed, 0xf19))
	paths := make(map[trace.FileID]string, len(tr.Files))
	for _, f := range tr.Files {
		path := fmt.Sprintf("/data/f%d", f.ID)
		paths[f.ID] = path
		data := make([]byte, len(f.Blocks)*s.BlockBytes)
		for i := range data {
			data[i] = byte(rng.UintN(256))
		}
		if err := c.Create(path, data, 3); err != nil {
			return row, err
		}
	}
	if err := nn.WaitConverged(30 * time.Second); err != nil {
		return row, err
	}
	if inj != nil {
		// The dataset is converged; the schedule's clock starts now so
		// churn lands on the replay phase.
		if err := inj.Start(); err != nil {
			return row, err
		}
	}

	info, err := c.ClusterInfo()
	if err != nil {
		return row, err
	}
	tcl, machineOf, err := testbedCluster(info, s.SlotsPerNode)
	if err != nil {
		return row, err
	}
	budget := tr.NumBlocks()*3 + s.BudgetExtraBlocks
	h := &testbedHost{
		system:    system,
		nn:        nn,
		c:         c,
		info:      info,
		machineOf: machineOf,
		paths:     paths,
		taskRetry: taskRetry,
		row:       &row,
		holders:   make(map[proto.BlockID][]topology.MachineID),
		scarlett:  &baseline.Scarlett{Mode: baseline.Priority, Budget: budget},
		opts: core.OptimizerOptions{
			Epsilon:             s.Epsilon,
			RackAware:           true,
			ReplicationBudget:   budget,
			MaxReplicationMoves: 20000,
			MaxSearchIterations: 20000,
		},
	}
	rr, err := sched.Replay[testbedRead](tcl, tr.Jobs, s.EpochTicks, h)
	if err != nil {
		return row, fmt.Errorf("experiments: %w", err)
	}
	row.LocalTasks = rr.LocalTasks
	row.RemoteTasks = rr.RackLocalTasks + rr.RemoteTasks
	for _, j := range rr.Jobs {
		row.JobDurations[j.ID] = j.Duration
	}
	durations, replicates, deletes := nn.MovementStats()
	row.MoveDurations = durations
	row.Replicates = replicates
	row.Deletes = deletes
	total := row.LocalTasks + row.RemoteTasks
	if total > 0 {
		row.LocalFraction = float64(row.LocalTasks) / float64(total)
	}
	return row, nil
}

// testbedHost is the testbed's side of the job replay (sched.Replay,
// the simulator's too): a job's tasks are the blocks the live namenode
// locates for its file (feeding its usage monitor), a launch reads the
// block over real TCP, and each epoch runs the system's
// reconfiguration on the live cluster.
type testbedHost struct {
	system    string
	nn        *namenode.NameNode
	c         *client.Client
	info      []proto.NodeInfo
	machineOf map[string]topology.MachineID
	paths     map[trace.FileID]string
	taskRetry retrypolicy.Policy
	row       *TestbedRow
	scarlett  *baseline.Scarlett
	opts      core.OptimizerOptions
	// holders is where each block read so far was last seen: located
	// when a job arrives, re-read after every epoch, and updated by a
	// launch's location refresh. A task queued before an epoch moved its
	// block is placed by where the block is now, not where it was.
	holders map[proto.BlockID][]topology.MachineID
}

// testbedRead is one map task's input: a block of the job's file.
type testbedRead struct {
	loc  proto.BlockLocation
	path string
}

// Tasks implements sched.Host: one task per located block of the job's
// file.
func (h *testbedHost) Tasks(j trace.Job) ([]testbedRead, error) {
	path := h.paths[j.File]
	locs, err := h.c.Locations(path)
	if err != nil {
		return nil, err
	}
	ins := make([]testbedRead, len(locs))
	for i, loc := range locs {
		ins[i] = testbedRead{loc: loc, path: path}
		h.locate(loc)
	}
	return ins, nil
}

// locate records the holders loc names.
func (h *testbedHost) locate(loc proto.BlockLocation) {
	var held []topology.MachineID
	for _, a := range loc.Addresses {
		if m, ok := h.machineOf[a]; ok {
			held = append(held, m)
		}
	}
	h.holders[loc.Block] = held
}

// Holders implements sched.Host with the holders last seen.
func (h *testbedHost) Holders(t testbedRead) []topology.MachineID { return h.holders[t.loc.Block] }

// Holds implements sched.Host.
func (h *testbedHost) Holds(t testbedRead, m topology.MachineID) bool {
	return slices.Contains(h.holders[t.loc.Block], m)
}

// Launch implements sched.Host on the real data path: it reads the
// block from the assigned node when local, any replica otherwise. The
// located holders can go stale when a reconfiguration epoch ran between
// the job's Locations call and the task launch — a migration may have
// deleted the replica we targeted, or fault injection may have taken
// the holder down — so a failed read refreshes locations and retries
// under the task policy (a single refresh without faults, backoff until
// the cluster heals with them), as a retrying task would.
func (h *testbedHost) Launch(t testbedRead, a sched.Assignment, _ int64) error {
	readFrom := h.info[a.Machine].Addr
	if a.Level != sched.NodeLocal && len(t.loc.Addresses) > 0 {
		readFrom = t.loc.Addresses[0]
	}
	data, err := h.c.ReadBlockFrom(proto.BlockLocation{Block: t.loc.Block, Length: t.loc.Length, Addresses: []string{readFrom}})
	if err != nil {
		readErr := err
		err = h.taskRetry.Do(func() error {
			locs, lerr := h.c.Locations(t.path)
			if lerr != nil {
				return lerr
			}
			for _, l := range locs {
				if l.Block == t.loc.Block {
					h.locate(l)
					data, lerr = h.c.ReadBlockFrom(l)
					return lerr
				}
			}
			return readErr
		})
		if err != nil {
			return fmt.Errorf("experiments: task read block %d (first tried %s): %w", t.loc.Block, readFrom, err)
		}
	}
	h.row.BytesRead += int64(len(data))
	return nil
}

// Epoch implements sched.Host: the system under test reconfigures the
// live cluster, and the replay resumes once the reconcile loop has
// carried the blocks — the paper's hourly cadence, where moves complete
// well within the period — and every block's holders are re-read. They
// are read from the namenode's desired placement, which convergence
// makes the confirmed one: a get_locations call would count as an
// access in the usage monitor the optimizer reads.
func (h *testbedHost) Epoch(int64) error {
	switch h.system {
	case "Scarlett":
		// A dropped plan leaves the live layout, as a dropped Aurora
		// period does; the next reconfiguration plans again.
		if err := h.nn.WithPlacement(func(p *core.Placement) error {
			_, err := h.scarlett.Rebalance(p)
			return err
		}); err != nil && !errors.Is(err, namenode.ErrPlanDropped) {
			return err
		}
	case "Aurora":
		if _, err := h.nn.OptimizeNow(h.opts); err != nil {
			return err
		}
	}
	if err := h.nn.WaitConverged(30 * time.Second); err != nil {
		return err
	}
	p, err := h.nn.PlacementClone()
	if err != nil {
		return err
	}
	for b := range h.holders {
		h.holders[b] = p.Replicas(core.BlockID(b))
	}
	return nil
}

// testbedCluster describes the live cluster to the task scheduler: one
// machine per datanode, in ID order, on its rack, with slots task slots.
// It also maps each datanode's address to its machine.
func testbedCluster(info []proto.NodeInfo, slots int) (*topology.Cluster, map[string]topology.MachineID, error) {
	var b topology.Builder
	racks := 0
	machineOf := make(map[string]topology.MachineID, len(info))
	for _, n := range info {
		for ; racks <= n.Rack; racks++ {
			b.AddRack()
		}
		m, err := b.AddMachine(topology.RackID(n.Rack), n.Capacity, slots)
		if err != nil {
			return nil, nil, err
		}
		if m != topology.MachineID(n.ID) {
			return nil, nil, fmt.Errorf("experiments: datanode %d listed out of ID order", n.ID)
		}
		machineOf[n.Addr] = m
	}
	cl, err := b.Build()
	return cl, machineOf, err
}

// Render writes the three panels of Figure 6 as text.
func (r *Fig6Result) Render(w io.Writer) error {
	fmt.Fprintf(w, "Figure 6 (testbed: 3 systems on the mini-DFS)\n%s\n", r.Notes)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "system\tlocal tasks (a)\tremote\tlocal %\treplicate cmds\tdelete cmds\tMB read")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f%%\t%d\t%d\t%.1f\n",
			row.System, row.LocalTasks, row.RemoteTasks, 100*row.LocalFraction,
			row.Replicates, row.Deletes, float64(row.BytesRead)/(1<<20))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if len(r.SpeedupVsScarlett) > 0 {
		cdf, err := metrics.NewCDF(r.SpeedupVsScarlett)
		if err == nil {
			fmt.Fprintf(w, "\njob speed-up ratio vs Scarlett (b): p10 %.2f  p50 %.2f  p90 %.2f  mean>0 fraction %.2f\n",
				cdf.Inverse(0.10), cdf.Inverse(0.50), cdf.Inverse(0.90), fractionPositive(r.SpeedupVsScarlett))
		}
	}
	aurora := r.Rows[2]
	if len(aurora.MoveDurations) > 0 {
		ds := make([]float64, len(aurora.MoveDurations))
		for i, d := range aurora.MoveDurations {
			ds[i] = d.Seconds()
		}
		cdf, err := metrics.NewCDF(ds)
		if err == nil {
			fmt.Fprintf(w, "block movement time seconds (c): n=%d  p50 %.3f  p90 %.3f  max %.3f\n",
				cdf.N(), cdf.Inverse(0.5), cdf.Inverse(0.9), cdf.Inverse(1))
		}
	}
	return nil
}

// String renders the result.
func (r *Fig6Result) String() string {
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		return fmt.Sprintf("experiments: render: %v", err)
	}
	return b.String()
}

func fractionPositive(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > 0 {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}
