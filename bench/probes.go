package main

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/popularity"
	"aurora/internal/topology"
)

// Probes are direct timed calls to one layer's public functions on
// fixed inputs, run once after the traced phase. They give the floor
// each layer contributes (what a frame, an RPC, a store-less pipeline
// costs on this box) that span times are compared against.

// timeIters runs fn n times and returns the mean nanoseconds and heap
// allocations per call.
func timeIters(n int, fn func() error) (ns, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}

// probeFrames times the frame codec over a buffer for a chunk-sized
// frame and a header-only metadata frame.
func probeFrames(m metricSet) error {
	chunk := make([]byte, chunkSize)
	chunkMsg := &proto.Message{Type: proto.MsgChunk, Block: 12345, Seq: 3, Offset: 3 * chunkSize, Checksum: proto.ChunkChecksum(chunk)}
	metaMsg := &proto.Message{Type: proto.MsgGetLocations, Path: "/probe/f00042"}
	for _, c := range []struct {
		tag     string
		msg     *proto.Message
		payload []byte
		iters   int
	}{{"chunk", chunkMsg, chunk, 4000}, {"meta", metaMsg, nil, 20000}} {
		var buf bytes.Buffer
		encNs, encAllocs, err := timeIters(c.iters, func() error {
			buf.Reset()
			return proto.WriteFrame(&buf, c.msg, c.payload)
		})
		if err != nil {
			return fmt.Errorf("bench: frame encode probe: %w", err)
		}
		wire := append([]byte(nil), buf.Bytes()...)
		decNs, decAllocs, err := timeIters(c.iters, func() error {
			_, _, err := proto.ReadFrame(bytes.NewReader(wire))
			return err
		})
		if err != nil {
			return fmt.Errorf("bench: frame decode probe: %w", err)
		}
		m.set("proto.frame_encode_"+c.tag+"_ns", encNs, "ns")
		m.set("proto.frame_decode_"+c.tag+"_ns", decNs, "ns")
		m.set("proto.frame_allocs_"+c.tag, encAllocs+decAllocs, "count")
	}
	return nil
}

// probeTransport measures the loopback floor under every RPC and
// stream: a dial-per-call echo, and a stream into a sink that only
// acknowledges.
func probeTransport(m metricSet) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("bench: transport probe listen: %w", err)
	}
	echo := func(req *proto.Message, _ []byte) (*proto.Message, []byte) {
		return &proto.Message{Type: proto.MsgOK, Path: req.Path}, nil
	}
	sink := func(open *proto.Message, _ []byte, st proto.BlockStream) {
		n := 0
		for {
			msg, chunk, err := st.Recv()
			if err != nil {
				return
			}
			n += len(chunk)
			if msg.Eof {
				break
			}
		}
		//lint:ignore errcheck the probe's client reports a missing ack
		_ = st.Send(&proto.Message{Type: proto.MsgStreamAck, Block: open.Block, Offset: n}, nil)
	}
	srv := proto.ServeStreams(ln, echo, sink, 0)
	defer func() {
		//lint:ignore errcheck probe listener; nothing depends on its close error
		_ = srv.Close()
	}()

	const calls = 2000
	lat := make([]float64, 0, calls)
	req := &proto.Message{Type: proto.MsgStatFile, Path: "/probe/f00042"}
	for i := 0; i < calls; i++ {
		start := time.Now()
		if _, _, err := proto.Call(srv.Addr(), req, nil, 0); err != nil {
			return fmt.Errorf("bench: rpc echo probe: %w", err)
		}
		lat = append(lat, float64(time.Since(start))/1e3)
	}
	m.set("proto.rpc_echo_us", median(lat), "us")

	const total = 32 << 20
	chunk := make([]byte, chunkSize)
	start := time.Now()
	st, err := proto.OpenStream(srv.Addr(), &proto.Message{Type: proto.MsgWriteBlockStream, Block: 1, Length: total, ChunkSize: chunkSize}, 0)
	if err != nil {
		return fmt.Errorf("bench: stream echo probe: %w", err)
	}
	defer func() {
		//lint:ignore errcheck probe stream; the ack below already proved delivery
		_ = st.Close()
	}()
	for off, seq := 0, 0; off < total; off, seq = off+chunkSize, seq+1 {
		msg := &proto.Message{Type: proto.MsgChunk, Block: 1, Seq: seq, Offset: off, Eof: off+chunkSize >= total, Checksum: proto.ChunkChecksum(chunk)}
		if err := st.Send(msg, chunk); err != nil {
			return fmt.Errorf("bench: stream echo probe: %w", err)
		}
	}
	ack, _, err := st.Recv()
	if err != nil {
		return fmt.Errorf("bench: stream echo probe: %w", err)
	}
	if ack.Offset != total {
		return fmt.Errorf("bench: stream echo probe: sink acknowledged %d of %d bytes", ack.Offset, total)
	}
	m.set("proto.stream_echo_mbps", total/1e6/time.Since(start).Seconds(), "MB/s")
	return nil
}

// probePipeline writes 32 MiB through a replication pipeline of depth
// 1, 2 and 3 on a fixed four-node in-memory cluster, so the cost of
// each added hop is read off without the workload's own store or
// dataset in the way.
func probePipeline(m metricSet, scratch string) error {
	// One rack: a file at replication 1 cannot span the default two.
	c, err := boot(clusterSpec{Nodes: 4, Racks: 1, BlockSize: 1 << 20, Shards: 1}, scratch, nil)
	if err != nil {
		return err
	}
	defer func() {
		//lint:ignore errcheck probe cluster; a close error changes no result
		_ = c.close()
	}()
	cl := c.newClient(1)
	data := make([]byte, 32<<20)
	fillContent(data, 1, "/probe/pipeline")
	for k := 1; k <= 3; k++ {
		path := fmt.Sprintf("/probe/pipeline/k%d", k)
		start := time.Now()
		if err := cl.Create(path, data, k); err != nil {
			return fmt.Errorf("bench: pipeline probe k=%d: %w", k, err)
		}
		m.set(fmt.Sprintf("datanode.pipeline_mbps_k%d", k), float64(len(data))/1e6/time.Since(start).Seconds(), "MB/s")
		if err := cl.Delete(path); err != nil {
			return fmt.Errorf("bench: pipeline probe k=%d: %w", k, err)
		}
	}
	return nil
}

// probePopularity times the usage monitor and the seasonal predictor on
// the run's own key set: the blocks the namenode saw accessed.
func probePopularity(m metricSet, snap map[core.BlockID]int64) error {
	keys := make([]core.BlockID, 0, len(snap))
	for id := range snap {
		keys = append(keys, id)
	}
	m.set("popularity.keys", float64(len(keys)), "count")
	if len(keys) == 0 {
		m.set("popularity.record_ns", 0, "ns")
		m.set("popularity.snapshot_ms", 0, "ms")
		m.set("popularity.predict_ms", 0, "ms")
		return nil
	}
	mon, err := popularity.NewMonitor[core.BlockID](int64(time.Second), 2)
	if err != nil {
		return fmt.Errorf("bench: popularity probe: %w", err)
	}
	now := time.Now().UnixNano()
	i := 0
	recordNs, _, err := timeIters(200000, func() error {
		mon.Record(keys[i%len(keys)], now)
		i++
		return nil
	})
	if err != nil {
		return err
	}
	m.set("popularity.record_ns", recordNs, "ns")

	var snaps []float64
	for r := 0; r < 9; r++ {
		start := time.Now()
		mon.Snapshot(now)
		snaps = append(snaps, float64(time.Since(start))/1e6)
	}
	m.set("popularity.snapshot_ms", median(snaps), "ms")

	pred, err := popularity.New[core.BlockID](popularity.NameSeasonal, popularity.PredictorOptions{})
	if err != nil {
		return fmt.Errorf("bench: popularity probe: %w", err)
	}
	var preds []float64
	for r := 0; r < 9; r++ {
		start := time.Now()
		pred.Observe(snap)
		pred.Predict()
		preds = append(preds, float64(time.Since(start))/1e6)
	}
	m.set("popularity.predict_ms", median(preds), "ms")
	return nil
}

// probeCore times the optimizer's stages on the placement the run ended
// with. Every repetition starts from a fresh clone, so each one does the
// same work.
func probeCore(m metricSet, p *core.Placement, blocks int) error {
	opts := optimizerOptions(blocks)
	specs := placementSpecs(p)
	const reps = 5
	var clone, alg3, search, optimize []float64
	var last core.OptimizeResult
	for r := 0; r < reps; r++ {
		start := time.Now()
		q := p.Clone()
		clone = append(clone, msSince(start))

		start = time.Now()
		if _, err := core.ComputeReplicationFactors(specs, opts.ReplicationBudget, p.Cluster().NumMachines(), opts.MaxReplicationMoves); err != nil {
			return fmt.Errorf("bench: core probe: %w", err)
		}
		alg3 = append(alg3, msSince(start))

		start = time.Now()
		if _, err := core.BPRackSearch(q, core.SearchOptions{Epsilon: opts.Epsilon, MaxIterations: opts.MaxSearchIterations}); err != nil {
			return fmt.Errorf("bench: core probe: %w", err)
		}
		search = append(search, msSince(start))

		q = p.Clone()
		start = time.Now()
		res, err := core.Optimize(q, opts)
		if err != nil {
			return fmt.Errorf("bench: core probe: %w", err)
		}
		optimize = append(optimize, msSince(start))
		last = res
	}
	m.set("core.clone_ms", median(clone), "ms")
	m.set("core.alg3_ms", median(alg3), "ms")
	m.set("core.search_ms", median(search), "ms")
	m.set("core.optimize_ms", median(optimize), "ms")
	m.set("core.search_iterations", float64(last.Search.Iterations), "count")
	m.set("core.moves", float64(last.Search.Movements), "count")
	m.set("core.replications", float64(last.Replications), "count")
	m.set("core.evictions", float64(last.Evictions), "count")
	return nil
}

// probeSharded runs one sharded period on a fixed synthetic instance
// sized for this box: 2 000 machines, 200 000 blocks, 4 shards, blocks
// striped over three racks with Zipf popularity concentrated on the low
// machine IDs.
func probeSharded(m metricSet) error {
	const (
		machines = 2000
		racks    = 20
		blocks   = 200_000
		shards   = 4
		extra    = 400
		iters    = 8000
	)
	perRack := machines / racks
	cluster, err := topology.Uniform(racks, perRack, replication*blocks/machines+60, 8)
	if err != nil {
		return fmt.Errorf("bench: sharded probe: %w", err)
	}
	specs := make([]core.BlockSpec, blocks)
	for i := range specs {
		specs[i] = core.BlockSpec{ID: core.BlockID(i + 1), Popularity: 1000 / float64(i+1), MinReplicas: replication, MinRacks: 2}
	}
	sp, err := core.NewShardedPlacement(cluster, shards, specs)
	if err != nil {
		return fmt.Errorf("bench: sharded probe: %w", err)
	}
	for i, s := range specs {
		first := i % machines
		for _, mach := range []int{first, (first + perRack) % machines, (first + 2*perRack) % machines} {
			if err := sp.AddReplica(s.ID, topology.MachineID(mach)); err != nil {
				return fmt.Errorf("bench: sharded probe: %w", err)
			}
		}
	}
	start := time.Now()
	res, err := core.OptimizeSharded(sp, core.ShardedOptimizerOptions{Opts: core.OptimizerOptions{
		Epsilon: 0.1, RackAware: true,
		ReplicationBudget:   sp.TotalReplicas() + extra,
		MaxReplicationMoves: extra, MaxSearchIterations: iters,
	}})
	if err != nil {
		return fmt.Errorf("bench: sharded probe: %w", err)
	}
	m.set("core.sharded_period_ms", msSince(start), "ms")
	m.set("core.sharded_imbalance", res.Imbalance, "ratio")
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// placementSpecs lists the specs of every block in p.
func placementSpecs(p *core.Placement) []core.BlockSpec {
	ids := p.Blocks()
	specs := make([]core.BlockSpec, 0, len(ids))
	for _, id := range ids {
		if s, err := p.Spec(id); err == nil {
			specs = append(specs, s)
		}
	}
	return specs
}

// solRatio is the placement's maximum machine load as a multiple of the
// lower bound no placement with the same replication factors can beat.
// A placement nobody has read from has no load to balance; it reports 1.
func solRatio(p *core.Placement) float64 {
	factors := make(map[core.BlockID]int)
	for _, id := range p.Blocks() {
		factors[id] = p.ReplicaCount(id)
	}
	bound := core.LowerBound(p.Cluster(), placementSpecs(p), factors)
	if bound <= 0 {
		return 1
	}
	return p.Cost() / bound
}
