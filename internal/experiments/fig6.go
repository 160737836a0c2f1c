package experiments

import (
	"container/heap"
	"fmt"
	"io"
	"math/rand/v2"
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
	// Shards partitions every system's namenode block map (values below
	// 2 keep the classic single-map namenode). Aurora's reconfiguration
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
// the workload in virtual time (with real block reads on the data path)
// and reconfigures at every epoch according to the system under test.
func runTestbedSystem(s TestbedSetup, tr *trace.Trace, system string) (TestbedRow, error) {
	row := TestbedRow{System: system, JobDurations: make(map[int64]int64)}

	var placer namenode.Placer
	if system == "Aurora" {
		placer = namenode.AuroraPlacer{}
	} // others use the default HDFS random placer

	// Under fault injection every process routes its RPCs through the
	// injector; without it they use the plain transport.
	var inj *faultinject.Injector
	taskRetry := retrypolicy.Policy{MaxAttempts: 2} // one location-refresh retry, as before
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

	budget := tr.NumBlocks()*3 + s.BudgetExtraBlocks
	scarlett := &baseline.Scarlett{Mode: baseline.Priority, Budget: budget}
	reconfigure := func() error {
		switch system {
		case "Scarlett":
			if err := nn.WithPlacement(func(p *core.Placement) error {
				_, err := scarlett.Rebalance(p)
				return err
			}); err != nil {
				return err
			}
		case "Aurora":
			if _, err := nn.OptimizeNow(core.OptimizerOptions{
				Epsilon:             s.Epsilon,
				RackAware:           true,
				ReplicationBudget:   budget,
				MaxReplicationMoves: 20000,
				MaxSearchIterations: 20000,
			}); err != nil {
				return err
			}
		default:
			return nil
		}
		// Give the reconcile loop time to carry the blocks; the
		// workload resumes against the converged layout, matching the
		// paper's hourly cadence where moves complete well within the
		// period.
		return nn.WaitConverged(30 * time.Second)
	}

	if err := replayWorkload(s, tr, paths, c, &row, reconfigure, taskRetry); err != nil {
		return row, err
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

// tbTask is one queued map task in the virtual-time replay.
type tbTask struct {
	job  int64
	loc  proto.BlockLocation
	dur  int64
	path string
}

// tbCompletion is a scheduled finish event.
type tbCompletion struct {
	at   int64
	seq  int64
	node string
	job  int64
}

type tbHeap []tbCompletion

func (h tbHeap) Len() int { return len(h) }
func (h tbHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h tbHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *tbHeap) Push(x any)   { *h = append(*h, x.(tbCompletion)) }
func (h *tbHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// replayWorkload replays the job trace in virtual time against the live
// cluster: locations come from the real namenode (feeding its usage
// monitor), block bytes are read over real TCP, and slots gate
// concurrency per node. Remote tasks take twice as long, per the paper.
func replayWorkload(s TestbedSetup, tr *trace.Trace, paths map[trace.FileID]string,
	c *client.Client, row *TestbedRow, reconfigure func() error,
	taskRetry retrypolicy.Policy) error {

	info, err := c.ClusterInfo()
	if err != nil {
		return err
	}
	free := make(map[string]int, len(info))
	var totalFree int
	for _, n := range info {
		free[n.Addr] = s.SlotsPerNode
		totalFree += s.SlotsPerNode
	}

	var (
		pending   []tbTask
		comps     tbHeap
		seq       int64
		now       int64
		remaining = make(map[int64]int)
		started   = make(map[int64]int64)
		arrIdx    int
		nextEpoch = s.EpochTicks
	)

	launch := func(tk tbTask) error {
		// Prefer a replica holder with a free slot (node-local task).
		target := ""
		for _, a := range tk.loc.Addresses {
			if free[a] > 0 && (target == "" || free[a] > free[target]) {
				target = a
			}
		}
		local := target != ""
		if !local {
			// Walk the nodes in ClusterInfo order, not map order, so a
			// tie in free slots goes to the same node on every replay.
			for _, n := range info {
				if free[n.Addr] > 0 && (target == "" || free[n.Addr] > free[target]) {
					target = n.Addr
				}
			}
		}
		if target == "" {
			return fmt.Errorf("experiments: no free slot despite accounting")
		}
		free[target]--
		totalFree--
		dur := tk.dur
		if local {
			row.LocalTasks++
		} else {
			row.RemoteTasks++
			dur *= 2
		}
		// Real data path: read the block (from the assigned node when
		// local, any replica otherwise). The queued location can go
		// stale when a reconfiguration epoch ran between the job's
		// Locations call and the task launch — a migration may have
		// deleted the replica we targeted, or fault injection may have
		// taken the holder down — so refresh locations and retry under
		// the task policy (a single refresh without faults, backoff
		// until the cluster heals with them), as a retrying task would.
		readFrom := target
		if !local && len(tk.loc.Addresses) > 0 {
			readFrom = tk.loc.Addresses[0]
		}
		data, err := c.ReadBlockFrom(proto.BlockLocation{Block: tk.loc.Block, Length: tk.loc.Length, Addresses: []string{readFrom}})
		if err != nil {
			readErr := err
			err = taskRetry.Do(func() error {
				locs, lerr := c.Locations(tk.path)
				if lerr != nil {
					return lerr
				}
				for _, l := range locs {
					if l.Block == tk.loc.Block {
						data, lerr = c.ReadBlockFrom(l)
						return lerr
					}
				}
				return readErr
			})
			if err != nil {
				return fmt.Errorf("experiments: task read block %d (first tried %s): %w", tk.loc.Block, readFrom, err)
			}
		}
		row.BytesRead += int64(len(data))
		seq++
		heap.Push(&comps, tbCompletion{at: now + max64(1, dur), seq: seq, node: target, job: tk.job})
		return nil
	}

	schedule := func() error {
		for len(pending) > 0 && totalFree > 0 {
			tk := pending[0]
			pending = pending[1:]
			if err := launch(tk); err != nil {
				return err
			}
		}
		return nil
	}

	jobs := tr.Jobs
	for {
		next := int64(-1)
		if comps.Len() > 0 {
			next = comps[0].at
		}
		if arrIdx < len(jobs) && (next == -1 || jobs[arrIdx].Arrival < next) {
			next = jobs[arrIdx].Arrival
		}
		if next == -1 && len(pending) == 0 {
			break
		}
		if next == -1 {
			return fmt.Errorf("experiments: %d tasks stuck with no events", len(pending))
		}
		if nextEpoch <= next {
			now = nextEpoch
			if err := reconfigure(); err != nil {
				return err
			}
			nextEpoch += s.EpochTicks
			if err := schedule(); err != nil {
				return err
			}
			continue
		}
		now = next
		for comps.Len() > 0 && comps[0].at == now {
			e := heap.Pop(&comps).(tbCompletion)
			free[e.node]++
			totalFree++
			if remaining[e.job]--; remaining[e.job] == 0 {
				row.JobDurations[e.job] = now - started[e.job]
				delete(remaining, e.job)
				delete(started, e.job)
			}
		}
		for arrIdx < len(jobs) && jobs[arrIdx].Arrival == now {
			j := jobs[arrIdx]
			arrIdx++
			path := paths[j.File]
			locs, err := c.Locations(path)
			if err != nil {
				return err
			}
			remaining[j.ID] = len(locs)
			started[j.ID] = now
			for _, loc := range locs {
				pending = append(pending, tbTask{job: j.ID, loc: loc, dur: j.TaskDuration, path: path})
			}
		}
		if err := schedule(); err != nil {
			return err
		}
	}
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
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
