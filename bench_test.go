// Benchmarks regenerating every evaluation figure of the paper plus the
// ablations DESIGN.md calls out. Figure benches report the paper's
// series as custom metrics (remote tasks/hour, movements/machine/hour,
// locality fractions); algorithm benches measure the cost of the moving
// parts at realistic scale.
//
//	go test -bench=. -benchmem
package aurora_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"aurora"
	"aurora/internal/baseline"
	"aurora/internal/core"
	"aurora/internal/dfs"
	"aurora/internal/dfs/proto"
	"aurora/internal/experiments"
	"aurora/internal/popularity"
	"aurora/internal/sim"
	"aurora/internal/topology"
	"aurora/internal/trace"
)

// benchSetup is a reduced (but still contended) rendition of the
// simulation campaign, sized so one figure run fits a benchmark
// iteration.
func benchSetup() experiments.Setup {
	s := experiments.DefaultSetup(42)
	s.Hours = 3
	s.Epsilons = []float64{0.1, 0.8}
	return s
}

// BenchmarkFig3RemoteTasks regenerates Figure 3 (Case 1, BP-Node):
// HDFS versus Aurora, no rack constraint.
func BenchmarkFig3RemoteTasks(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig3(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Rows[0].RemoteTasksPerHour, "hdfs-remote/h")
		b.ReportMetric(fig.Rows[1].RemoteTasksPerHour, "aurora-remote/h")
		b.ReportMetric(fig.Rows[1].MovementsPerMachineHour, "moves/mach/h")
	}
}

// BenchmarkFig4RackAware regenerates Figure 4 (Case 2, BP-Rack).
func BenchmarkFig4RackAware(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4(s)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Rows[0].RemoteTasksPerHour, "hdfs-remote/h")
		b.ReportMetric(fig.Rows[1].RemoteTasksPerHour, "aurora-remote/h")
		b.ReportMetric(fig.Rows[1].Jain, "aurora-jain")
	}
}

// BenchmarkFig5VsScarlett regenerates Figure 5 (Case 3, BP-Replicate):
// Scarlett versus Aurora under the same replication budget.
func BenchmarkFig5VsScarlett(b *testing.B) {
	s := benchSetup()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5(s)
		if err != nil {
			b.Fatal(err)
		}
		_, pct, err := fig.Headline()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(fig.Rows[0].RemoteTasksPerHour, "scarlett-remote/h")
		b.ReportMetric(fig.Rows[1].RemoteTasksPerHour, "aurora-remote/h")
		b.ReportMetric(pct, "reduction-%")
	}
}

// BenchmarkFig6Locality regenerates Figure 6 (testbed): three systems on
// the real mini-DFS over loopback TCP.
func BenchmarkFig6Locality(b *testing.B) {
	setup := experiments.DefaultTestbedSetup(42)
	setup.Files = 12
	setup.Jobs = 120
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(setup)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].LocalFraction, "hdfs-local")
		b.ReportMetric(res.Rows[1].LocalFraction, "scarlett-local")
		b.ReportMetric(res.Rows[2].LocalFraction, "aurora-local")
	}
}

// buildRandomPlacement creates a placement with Zipf-like popularity on
// random machines — the adversarial start the searches are measured on.
func buildRandomPlacement(b *testing.B, machines, blocks int) (*topology.Cluster, []core.BlockSpec, *core.Placement) {
	return buildRandomPlacementCap(b, machines, blocks, blocks)
}

// buildRandomPlacementCap allows a tight per-machine capacity, which is
// what makes Swap operations necessary (Theorem 2's capacity case).
func buildRandomPlacementCap(b *testing.B, machines, blocks, capacity int) (*topology.Cluster, []core.BlockSpec, *core.Placement) {
	b.Helper()
	cluster, err := topology.Uniform(4, machines/4, capacity, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(9, 9))
	specs := make([]core.BlockSpec, blocks)
	for i := range specs {
		specs[i] = core.BlockSpec{
			ID:          core.BlockID(i + 1),
			Popularity:  1000 / float64(i+1),
			MinReplicas: 3,
			MinRacks:    2,
		}
	}
	p, err := core.NewPlacement(cluster, specs)
	if err != nil {
		b.Fatal(err)
	}
	ms := cluster.Machines()
	for _, s := range specs {
		for p.ReplicaCount(s.ID) < 3 {
			m := ms[rng.IntN(len(ms))]
			if p.ReplicaCount(s.ID) == 1 && p.RackSpread(s.ID) == 1 {
				if cluster.SameRack(p.Replicas(s.ID)[0], m) {
					continue
				}
			}
			_ = p.AddReplica(s.ID, m)
		}
	}
	return cluster, specs, p
}

// benchSizes are the hot-path benchmark configurations. The laptop-scale
// instance converges fully; the large instance (1000 machines, 20k
// blocks) caps the operation count so runtime stays bounded — the op
// sequence is deterministic, so ns/op remains a fair per-operation
// comparison across implementations. Clone runs under StopTimer so
// neither time nor allocations of the deep copy pollute the search
// measurement.
var benchSizes = []struct {
	name     string
	machines int
	blocks   int
	maxIters int
}{
	{name: "40x2k", machines: 40, blocks: 2000},
	{name: "1000x20k", machines: 1000, blocks: 20000, maxIters: 2000},
}

// BenchmarkLocalSearchNode measures Algorithm 1 on random instances.
func BenchmarkLocalSearchNode(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			_, _, base := buildRandomPlacement(b, sz.machines, sz.blocks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := base.Clone()
				b.StartTimer()
				res, err := core.BPNodeSearch(p, core.SearchOptions{MaxIterations: sz.maxIters})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "ops")
			}
		})
	}
}

// BenchmarkLocalSearchRack measures Algorithm 2 on the same instances.
func BenchmarkLocalSearchRack(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			_, _, base := buildRandomPlacement(b, sz.machines, sz.blocks)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := base.Clone()
				b.StartTimer()
				res, err := core.BPRackSearch(p, core.SearchOptions{MaxIterations: sz.maxIters})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Iterations), "ops")
			}
		})
	}
}

// BenchmarkRepFactor measures Algorithm 3 at the paper's scale: 16000
// blocks, budget 48000+70000, K=20000.
func BenchmarkRepFactor(b *testing.B) {
	specs := make([]core.BlockSpec, 16000)
	for i := range specs {
		specs[i] = core.BlockSpec{
			ID:          core.BlockID(i + 1),
			Popularity:  100000 / float64(i+1),
			MinReplicas: 3,
			MinRacks:    2,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.ComputeReplicationFactors(specs, 48000+70000, 845, 20000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Objective, "objective")
	}
}

// BenchmarkInitialPlacement measures Algorithm 4 placing 1000 blocks on
// an 845-machine cluster.
func BenchmarkInitialPlacement(b *testing.B) {
	cluster, err := topology.Uniform(13, 65, 200, 14)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		specs := make([]core.BlockSpec, 1000)
		for j := range specs {
			specs[j] = core.BlockSpec{ID: core.BlockID(j + 1), Popularity: float64(j), MinReplicas: 3, MinRacks: 2}
		}
		p, err := core.NewPlacement(cluster, specs)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, s := range specs {
			if err := core.InitialPlace(p, s.ID, 3, topology.NoMachine); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkOptimizePeriod measures one full Algorithm 5 period
// (replication + local search) on contended instances.
func BenchmarkOptimizePeriod(b *testing.B) {
	for _, sz := range benchSizes {
		b.Run(sz.name, func(b *testing.B) {
			_, _, base := buildRandomPlacement(b, sz.machines, sz.blocks)
			budget := base.TotalReplicas() + 1000
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := base.Clone()
				b.StartTimer()
				if _, err := core.Optimize(p, core.OptimizerOptions{
					Epsilon:             0.1,
					RackAware:           true,
					ReplicationBudget:   budget,
					MaxReplicationMoves: 20000,
					MaxSearchIterations: sz.maxIters,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimizePeriodSharded measures one Algorithm 5 period at
// namenode scale — 10000 machines, 1M blocks — through the partitioned
// block map, with 1 shard (the classic single-map path, bit-identical
// to Optimize) and 8 shards under the same global iteration, move and
// budget caps. The stride start places every block on three distinct
// racks with balanced replica counts while the Zipf head concentrates
// popularity on low machine IDs — the contended instance each shard's
// search must unwind. The sharded win is algorithmic, not parallel:
// each probe walks a popularity-ordered candidate list ~1/N as long,
// over maps and heaps ~1/N the size.
func BenchmarkOptimizePeriodSharded(b *testing.B) {
	const (
		machines = 10000
		racks    = 20
		blocks   = 1_000_000
		iters    = 40000
		extra    = 2000
	)
	perRack := machines / racks
	capacity := 3*blocks/machines + 60 // replica mass plus slack for replication
	cluster, err := topology.Uniform(racks, machines/racks, capacity, 8)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]core.BlockSpec, blocks)
	for i := range specs {
		specs[i] = core.BlockSpec{
			ID:          core.BlockID(i + 1),
			Popularity:  1000 / float64(i+1),
			MinReplicas: 3,
			MinRacks:    2,
		}
	}
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("10000x1M/shards=%d", shards), func(b *testing.B) {
			base, err := core.NewShardedPlacement(cluster, shards, specs)
			if err != nil {
				b.Fatal(err)
			}
			for i, s := range specs {
				m1 := i % machines
				for _, m := range []int{m1, (m1 + perRack) % machines, (m1 + 2*perRack) % machines} {
					if err := base.AddReplica(s.ID, topology.MachineID(m)); err != nil {
						b.Fatal(err)
					}
				}
			}
			budget := base.TotalReplicas() + extra
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sp := base.Clone()
				b.StartTimer()
				res, err := core.OptimizeSharded(sp, core.ShardedOptimizerOptions{
					Opts: core.OptimizerOptions{
						Epsilon:             0.1,
						RackAware:           true,
						ReplicationBudget:   budget,
						MaxReplicationMoves: extra,
						MaxSearchIterations: iters,
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Search.Iterations), "ops")
				b.ReportMetric(res.Imbalance, "imbalance")
			}
		})
	}
}

// BenchmarkPlacementClone measures the namenode period's snapshot: one
// deep copy of the sharded block map, taken under the namenode lock
// (DESIGN.md §10.4). The 3 200-block row is optimize_foreground's shape
// (24 machines on 4 racks, 4 shards, 3 replicas over 2 racks per
// block); the 100 000-block row scales the namespace on the same
// machines.
func BenchmarkPlacementClone(b *testing.B) {
	const (
		machines = 24
		racks    = 4
		shards   = 4
	)
	for _, blocks := range []int{3200, 100_000} {
		b.Run(fmt.Sprintf("%dx%d/shards=%d", machines, blocks, shards), func(b *testing.B) {
			capacity := 3*blocks/machines + 64
			cluster, err := topology.Uniform(racks, machines/racks, capacity, 8)
			if err != nil {
				b.Fatal(err)
			}
			specs := make([]core.BlockSpec, blocks)
			for i := range specs {
				specs[i] = core.BlockSpec{
					ID:          core.BlockID(i + 1),
					Popularity:  1000 / float64(i+1),
					MinReplicas: 3,
					MinRacks:    2,
				}
			}
			base, err := core.NewShardedPlacement(cluster, shards, specs)
			if err != nil {
				b.Fatal(err)
			}
			perRack := machines / racks
			for i, s := range specs {
				m1 := i % machines
				for _, m := range []int{m1, (m1 + perRack) % machines, (m1 + 2*perRack) % machines} {
					if err := base.AddReplica(s.ID, topology.MachineID(m)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cloneSink = base.Clone()
			}
		})
	}
}

// cloneSink keeps BenchmarkPlacementClone's copies alive past the loop.
var cloneSink *core.ShardedPlacement

// BenchmarkAblationNoSwap compares the local search with and without
// Swap operations: without Swap the capacity argument of Theorem 2
// fails, and on tight clusters the final cost is worse.
func BenchmarkAblationNoSwap(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "swap"
		if disable {
			name = "no-swap"
		}
		b.Run(name, func(b *testing.B) {
			// Tight capacity (5% slack): full machines force swaps.
			_, _, base := buildRandomPlacementCap(b, 40, 2000, 2000*3/40+8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := base.Clone()
				res, err := core.BPRackSearch(p, core.SearchOptions{DisableSwap: disable})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FinalCost, "final-cost")
			}
		})
	}
}

// BenchmarkAblationEpsilon sweeps the admissibility knob and reports the
// quality/movement tradeoff (the relationship behind Figures 3c/4c).
func BenchmarkAblationEpsilon(b *testing.B) {
	for _, eps := range []float64{0, 0.3, 0.7} {
		b.Run(fmt.Sprintf("eps=%.1f", eps), func(b *testing.B) {
			_, _, base := buildRandomPlacement(b, 40, 2000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := base.Clone()
				res, err := core.BPRackSearch(p, core.SearchOptions{Epsilon: eps})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.FinalCost, "final-cost")
				b.ReportMetric(float64(res.Movements), "movements")
			}
		})
	}
}

// BenchmarkAblationRepFactor compares Algorithm 3's optimal factors
// against Scarlett's priority heuristic on the same budget: the metric
// is the per-replica popularity objective each achieves.
func BenchmarkAblationRepFactor(b *testing.B) {
	specs := make([]core.BlockSpec, 5000)
	for i := range specs {
		specs[i] = core.BlockSpec{
			ID:          core.BlockID(i + 1),
			Popularity:  50000 / float64(i+1),
			MinReplicas: 3,
			MinRacks:    2,
		}
	}
	budget := 3*len(specs) + 5000
	b.Run("algorithm3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.ComputeReplicationFactors(specs, budget, 845, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Objective, "objective")
		}
	})
	b.Run("scarlett-priority", func(b *testing.B) {
		s := &baseline.Scarlett{Mode: baseline.Priority, Budget: budget}
		for i := 0; i < b.N; i++ {
			factors, err := s.Factors(specs, 845)
			if err != nil {
				b.Fatal(err)
			}
			objective := 0.0
			for _, sp := range specs {
				if v := sp.Popularity / float64(factors[sp.ID]); v > objective {
					objective = v
				}
			}
			b.ReportMetric(objective, "objective")
		}
	})
}

// BenchmarkAblationInitialPlacement compares the starting cost of
// Algorithm 4 against random placement, and how many local-search
// operations each needs to converge.
func BenchmarkAblationInitialPlacement(b *testing.B) {
	cluster, err := topology.Uniform(4, 10, 2000, 8)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]core.BlockSpec, 2000)
	for i := range specs {
		specs[i] = core.BlockSpec{
			ID:          core.BlockID(i + 1),
			Popularity:  1000 / float64(i+1),
			MinReplicas: 3,
			MinRacks:    2,
		}
	}
	b.Run("algorithm4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := core.NewPlacement(cluster, specs)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range specs {
				if err := core.InitialPlace(p, s.ID, 3, topology.NoMachine); err != nil {
					b.Fatal(err)
				}
			}
			res, err := core.BPRackSearch(p, core.SearchOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Iterations), "ops-to-converge")
			b.ReportMetric(res.FinalCost, "final-cost")
		}
	})
	b.Run("random", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			_, _, p := buildRandomPlacement(b, 40, 2000)
			b.StartTimer()
			res, err := core.BPRackSearch(p, core.SearchOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Iterations), "ops-to-converge")
			b.ReportMetric(res.FinalCost, "final-cost")
		}
	})
}

// BenchmarkLoadIndex compares the linear argmax/argmin scan the
// placement uses against rebuilding a sorted index, justifying the
// scan-based design at cluster scale.
func BenchmarkLoadIndex(b *testing.B) {
	cluster, err := topology.Uniform(13, 65, 200, 14)
	if err != nil {
		b.Fatal(err)
	}
	specs := make([]core.BlockSpec, 2000)
	for i := range specs {
		specs[i] = core.BlockSpec{ID: core.BlockID(i + 1), Popularity: float64(i), MinReplicas: 3, MinRacks: 2}
	}
	p, err := core.NewPlacement(cluster, specs)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range specs {
		if err := core.InitialPlace(p, s.ID, 3, topology.NoMachine); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("linear-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = p.MaxLoadedMachine()
			_ = p.MinLoadedMachine()
		}
	})
	b.Run("full-vector-copy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loads := p.Loads()
			maxI, minI := 0, 0
			for j, l := range loads {
				if l > loads[maxI] {
					maxI = j
				}
				if l < loads[minI] {
					minI = j
				}
			}
			_ = maxI
			_ = minI
		}
	})
}

// BenchmarkUsageMonitor measures the sliding-window monitor under the
// access rates the simulator generates.
func BenchmarkUsageMonitor(b *testing.B) {
	mon, err := popularity.NewMonitor[core.BlockID](3600, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mon.Record(core.BlockID(i%10000), int64(i))
	}
}

// BenchmarkTraceGenerate measures workload generation at the paper's
// simulation scale.
func BenchmarkTraceGenerate(b *testing.B) {
	cfg := trace.YahooLike(1, 2000, 24, 2000)
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// startBenchCluster boots the data-path benchmarks' loopback cluster:
// 4 datanodes over 2 racks. It closes when the benchmark run ends.
func startBenchCluster(b *testing.B, blockSize int) *aurora.NameNode {
	c, err := dfs.Start(dfs.Spec{
		Nodes:    4,
		NameNode: aurora.NameNodeConfig{Racks: 2, BlockSize: blockSize, ReconcileInterval: 50 * time.Millisecond},
		DataNode: aurora.DataNodeConfig{CapacityBlocks: 4096, HeartbeatInterval: 100 * time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = c.Close() })
	return c.NameNode
}

// BenchmarkDFSWriteRead measures the mini-DFS data path: a 16-block file
// written through replication pipelines and read back, over real TCP.
func BenchmarkDFSWriteRead(b *testing.B) {
	nn := startBenchCluster(b, 64<<10)
	c := aurora.NewFSClient(nn.Addr(), aurora.WithBlockSize(64<<10), aurora.WithClientSeed(1))
	data := make([]byte, 16*(64<<10))
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(int64(len(data)) * 2) // written + read back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/bench/%d", i)
		if err := c.Create(path, data, 3); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(path); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := c.Delete(path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkDataPathThroughput measures the chunked streaming data path
// (DESIGN.md §15) end to end over real TCP: a 16-block file streamed
// through k=3 pipelines in 64 KiB chunks and read back with one block
// of read-ahead. The MB/s figure is the headline; allocs/op rides the
// ratchet so the per-chunk framing stays allocation-lean.
func BenchmarkDataPathThroughput(b *testing.B) {
	nn := startBenchCluster(b, 256<<10)
	c := aurora.NewFSClient(nn.Addr(),
		aurora.WithBlockSize(256<<10),
		aurora.WithClientSeed(1),
		aurora.WithChunkSize(64<<10),
		aurora.WithReadAhead(1),
	)
	data := make([]byte, 16*(256<<10))
	for i := range data {
		data[i] = byte(i * 31)
	}
	b.SetBytes(int64(len(data)) * 2) // written + read back
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path := fmt.Sprintf("/bench/stream/%d", i)
		if err := c.Create(path, data, 3); err != nil {
			b.Fatal(err)
		}
		got, err := c.Read(path)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if len(got) != len(data) {
			b.Fatalf("read %d bytes, want %d", len(got), len(data))
		}
		if err := c.Delete(path); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkFrameListReply encodes and decodes a 1 000-entry list_files
// reply, the largest header the metadata path moves (DESIGN.md §15.1).
// allocs/op rides the ratchet: one string for all the paths, the file
// list and the Message on decode; nothing per entry.
func BenchmarkFrameListReply(b *testing.B) {
	files := make([]proto.FileInfo, 1000)
	for i := range files {
		files[i] = proto.FileInfo{Path: fmt.Sprintf("/meta/f%05d", i), Blocks: 1, Length: 512, Replication: 3, Complete: true}
	}
	msg := &proto.Message{Type: proto.MsgOK, Files: files}
	var buf bytes.Buffer
	roundTrip := func() {
		buf.Reset()
		if err := proto.WriteFrame(&buf, msg, nil); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
		got, _, err := proto.ReadFrame(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Files) != len(files) {
			b.Fatalf("decoded %d files, want %d", len(got.Files), len(files))
		}
	}
	roundTrip() // warm the frame buffers out of the allocation count
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
}

// BenchmarkRPCRoundTrip measures the control-plane transport alone: a
// get_locations-shaped Call over loopback TCP to a Server whose handler
// answers with a fixed three-replica location, on one kept-alive pooled
// connection (DESIGN.md §15.7). An op is 1 000 sequential calls, so the
// ledger's two iterations time enough round trips; ns/call is the
// figure per call. allocs/op rides the ratchet.
func BenchmarkRPCRoundTrip(b *testing.B) {
	const calls = 1000
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	reply := &proto.Message{Type: proto.MsgOK, Locations: []proto.BlockLocation{
		{Block: 42, Length: 512, Addresses: []string{"127.0.0.1:40001", "127.0.0.1:40002", "127.0.0.1:40003"}},
	}}
	srv := proto.Serve(ln, func(*proto.Message, []byte) (*proto.Message, []byte) { return reply, nil }, 0)
	defer srv.Close()
	req := &proto.Message{Type: proto.MsgGetLocations, Path: "/meta/f00042"}
	call := func() {
		resp, _, err := proto.Call(srv.Addr(), req, nil, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.Locations) != 1 {
			b.Fatalf("reply carried %d locations, want 1", len(resp.Locations))
		}
	}
	call() // dial and pool the connection
	b.ResetTimer()
	for range b.N {
		for range calls {
			call()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*calls), "ns/call")
}

// BenchmarkNameNodeListFiles measures one list_files call, client to
// namenode and back over loopback TCP, on a 1 000-file namespace of
// one-block files — meta_small's listing. The namenode walks its
// path-ordered index under its lock (DESIGN.md §9). Datanodes are fake
// registrations and the reconcile loop is parked, so allocs/op (on the
// ratchet) counts the call alone.
func BenchmarkNameNodeListFiles(b *testing.B) {
	nn, err := aurora.StartNameNode(aurora.NameNodeConfig{
		ExpectedNodes:     3,
		Racks:             2,
		DeadTimeout:       time.Hour,
		ReconcileInterval: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer nn.Close()
	call := func(m *proto.Message) *proto.Message {
		resp, _, err := proto.Call(nn.Addr(), m, nil, time.Second)
		if err != nil {
			b.Fatal(err)
		}
		return resp
	}
	for i := 0; i < 3; i++ {
		call(&proto.Message{Type: proto.MsgRegister, DataAddr: fmt.Sprintf("dn%d:1", i), Rack: i % 2, Capacity: 4096})
	}
	const files = 1000
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/meta/f%05d", i)
		call(&proto.Message{Type: proto.MsgCreateFile, Path: path})
		call(&proto.Message{Type: proto.MsgAddBlock, Path: path, Length: 512})
	}
	list := &proto.Message{Type: proto.MsgListFiles}
	call(list) // warm the pooled connection out of the allocation count
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := call(list); len(got.Files) != files {
			b.Fatalf("listed %d files, want %d", len(got.Files), files)
		}
	}
}

// BenchmarkNameNodeReconcileConverged measures one reconcile pass of a
// converged namenode: 100 000 one-block files at three replicas on 20
// fake registrations, every replica confirmed by a full report, and
// 1 000 blocks read once so the load telemetry has a window to sum. The
// namespace is loaded from an fsimage so setup takes seconds, and the
// reconcile ticker is parked, so one op is exactly one ReconcileOnce.
// With nothing to do, the pass walks only what changed since the last
// one (DESIGN.md §10.3).
func BenchmarkNameNodeReconcileConverged(b *testing.B) {
	const (
		nodes  = 20
		blocks = 100_000
		reads  = 1_000
	)
	type node struct {
		ID       int    `json:"id"`
		Addr     string `json:"addr"`
		Rack     int    `json:"rack"`
		Capacity int    `json:"capacity"`
	}
	type file struct {
		Path        string `json:"path"`
		Blocks      []int  `json:"blocks"`
		Lengths     []int  `json:"lengths"`
		Replication int    `json:"replication"`
		MinRacks    int    `json:"minRacks"`
		Complete    bool   `json:"complete"`
	}
	type block struct {
		ID          int     `json:"id"`
		MinReplicas int     `json:"minReplicas"`
		MinRacks    int     `json:"minRacks"`
		Desired     [3]int  `json:"desired"`
		Popularity  float64 `json:"popularity"`
	}
	img := struct {
		Version   int     `json:"version"`
		Racks     int     `json:"racks"`
		NextBlock int     `json:"nextBlock"`
		Nodes     []node  `json:"nodes"`
		Files     []file  `json:"files"`
		Blocks    []block `json:"blocks"`
	}{Version: 1, Racks: 2, NextBlock: blocks + 1}
	held := make([][]proto.BlockID, nodes)
	for n := 0; n < nodes; n++ {
		img.Nodes = append(img.Nodes, node{ID: n, Addr: fmt.Sprintf("dn%d:1", n), Rack: n % 2, Capacity: blocks})
	}
	for i := 0; i < blocks; i++ {
		id := i + 1
		img.Files = append(img.Files, file{Path: fmt.Sprintf("/r/f%06d", i), Blocks: []int{id},
			Lengths: []int{512}, Replication: 3, MinRacks: 2, Complete: true})
		desired := [3]int{i % nodes, (i + 1) % nodes, (i + 2) % nodes}
		img.Blocks = append(img.Blocks, block{ID: id, MinReplicas: 3, MinRacks: 2, Desired: desired})
		for _, n := range desired {
			held[n] = append(held[n], proto.BlockID(id))
		}
	}
	raw, err := json.Marshal(img)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "fsimage.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		b.Fatal(err)
	}
	nn, err := aurora.StartNameNode(aurora.NameNodeConfig{
		ExpectedNodes:      nodes,
		DeadTimeout:        time.Hour,
		ReconcileInterval:  time.Hour,
		CheckpointInterval: time.Hour,
		FsImagePath:        path,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer nn.Close()
	call := func(m *proto.Message) {
		if _, _, err := proto.Call(nn.Addr(), m, nil, 10*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	for n := range held {
		call(&proto.Message{Type: proto.MsgHeartbeatDelta, Node: proto.NodeID(n), FullReport: true, Received: held[n]})
	}
	for i := 0; i < reads; i++ {
		call(&proto.Message{Type: proto.MsgGetLocations, Path: fmt.Sprintf("/r/f%06d", i*(blocks/reads))})
	}
	nn.ReconcileOnce() // the pass after a load visits every block once
	if !nn.Converged() {
		b.Fatal("namenode not converged after every replica was confirmed")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ReconcileOnce()
	}
}

// BenchmarkAblationReplicationOnRead compares Aurora against Aurora with
// the paper's future-work replication-on-read extension and against the
// DARE baseline, under the same budget.
func BenchmarkAblationReplicationOnRead(b *testing.B) {
	cl, err := topology.Uniform(4, 10, 600, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.YahooLike(42, 150, 3, 2600)
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	budget := tr.NumBlocks()*3 + 1200
	policies := map[string]func() (sim.Policy, error){
		"aurora": func() (sim.Policy, error) {
			return &sim.AuroraPolicy{Opts: core.OptimizerOptions{
				Epsilon: 0.1, RackAware: true,
				ReplicationBudget: budget, MaxReplicationMoves: 20000,
				MaxSearchIterations: 50000,
			}}, nil
		},
		"aurora+ror": func() (sim.Policy, error) {
			return sim.NewAuroraRoRPolicy(42, 0.5, core.OptimizerOptions{
				Epsilon: 0.1, RackAware: true,
				ReplicationBudget: budget, MaxReplicationMoves: 20000,
				MaxSearchIterations: 50000,
			})
		},
		"dare": func() (sim.Policy, error) {
			return sim.NewDAREPolicy(42, 0.5, budget)
		},
	}
	for _, name := range []string{"aurora", "aurora+ror", "dare"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol, err := policies[name]()
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Config{Cluster: cl, Trace: tr, Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.NonLocalTasks()), "remote-tasks")
				b.ReportMetric(float64(res.Replications), "replications")
			}
		})
	}
}

// BenchmarkAblationScarlettMode compares Scarlett's two budget heuristics
// (the paper notes priority "achieves better performance than round
// robin"): the metric is the remote-task count each produces under the
// same budget.
func BenchmarkAblationScarlettMode(b *testing.B) {
	cl, err := topology.Uniform(4, 10, 600, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := trace.YahooLike(42, 150, 3, 2600)
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	budget := tr.NumBlocks()*3 + 1200
	for _, mode := range []baseline.ScarlettMode{baseline.Priority, baseline.RoundRobin} {
		name := "priority"
		if mode == baseline.RoundRobin {
			name = "round-robin"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pol, err := sim.NewScarlettPolicy(42, &baseline.Scarlett{Mode: mode, Budget: budget})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Config{Cluster: cl, Trace: tr, Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.NonLocalTasks()), "remote-tasks")
			}
		})
	}
}
