package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"aurora/internal/core"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is the metrics of one run by name.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// metricDef declares a metric the way BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics of an untraced run, in print order. The
// bounds live in BENCHMARK.json; a test keeps the two lists equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"within_limit_frac", "fraction", "higher"},
	{"optimize_sol_ratio", "ratio", "lower"},
}

// perLayer are the metrics of a traced run, grouped by the layer that
// produces them. A workload that does not exercise a layer reports 0
// for it.
var perLayer = []metricDef{
	// proto: probes over a buffer and over loopback, then counts.
	{"proto.frame_encode_chunk_ns", "ns", "lower"},
	{"proto.frame_decode_chunk_ns", "ns", "lower"},
	{"proto.frame_encode_meta_ns", "ns", "lower"},
	{"proto.frame_decode_meta_ns", "ns", "lower"},
	{"proto.frame_allocs_chunk", "count", "lower"},
	{"proto.frame_allocs_meta", "count", "lower"},
	{"proto.rpc_echo_us", "us", "lower"},
	{"proto.stream_echo_mbps", "MB/s", "higher"},
	{"proto.calls", "count", "lower"},
	{"proto.stream_opens", "count", "lower"},
	{"proto.chunks", "count", "lower"},
	{"proto.wire_bytes_per_user_byte", "ratio", "lower"},
	// store: spans around BlockStore, through Config.WrapStore.
	{"store.put_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_mbps", "MB/s", "higher"},
	{"store.get_mbps", "MB/s", "higher"},
	{"store.ops", "count", "lower"},
	{"store.busy_share", "fraction", "lower"},
	// datanode: stream spans seen from the client and from each hop.
	{"datanode.write_stream_ms", "ms", "lower"},
	{"datanode.read_stream_ms", "ms", "lower"},
	{"datanode.pipeline_hop_ms", "ms", "lower"},
	{"datanode.self_write_ms", "ms", "lower"},
	{"datanode.self_read_ms", "ms", "lower"},
	{"datanode.forward_streams", "count", "lower"},
	{"datanode.heartbeat_us", "us", "lower"},
	{"datanode.heartbeats", "count", "lower"},
	{"datanode.pipeline_mbps_k1", "MB/s", "higher"},
	{"datanode.pipeline_mbps_k2", "MB/s", "higher"},
	{"datanode.pipeline_mbps_k3", "MB/s", "higher"},
	// namenode: one-shot RPC spans by message type.
	{"namenode.create_file_us", "us", "lower"},
	{"namenode.add_block_us", "us", "lower"},
	{"namenode.complete_file_us", "us", "lower"},
	{"namenode.get_locations_us", "us", "lower"},
	{"namenode.stat_file_us", "us", "lower"},
	{"namenode.list_files_us", "us", "lower"},
	{"namenode.delete_file_us", "us", "lower"},
	{"namenode.heartbeat_delta_us", "us", "lower"},
	{"namenode.block_received_us", "us", "lower"},
	{"namenode.self_us", "us", "lower"},
	{"namenode.calls", "count", "lower"},
	{"namenode.errors", "count", "lower"},
	{"namenode.optimize_lock_hold_ms", "ms", "lower"},
	{"namenode.apply_ms", "ms", "lower"},
	// client: what is left of an operation once its RPCs and streams
	// are taken out, and the tails, which this sandbox does not repeat
	// closely enough to gate.
	{"client.self_ms", "ms", "lower"},
	{"client.self_share", "fraction", "lower"},
	{"client.lat_p95_ms", "ms", "lower"},
	{"client.lat_tail_ms", "ms", "lower"},
	{"client.lat_tail_pct", "%", "higher"},
	{"client.lat_max_ms", "ms", "lower"},
	{"client.stall_lat_p50_ms", "ms", "lower"},
	{"client.stall_ops", "count", "lower"},
	{"client.user_mbps", "MB/s", "higher"},
	{"client.retries", "count", "lower"},
	{"client.failovers", "count", "lower"},
	{"client.failed_op_frac", "fraction", "lower"},
	// popularity: probes on the blocks this run accessed.
	{"popularity.record_ns", "ns", "lower"},
	{"popularity.snapshot_ms", "ms", "lower"},
	{"popularity.predict_ms", "ms", "lower"},
	{"popularity.keys", "count", "lower"},
	// core: probes on the placement the run ended with, and a fixed
	// synthetic sharded instance.
	{"core.clone_ms", "ms", "lower"},
	{"core.alg3_ms", "ms", "lower"},
	{"core.search_ms", "ms", "lower"},
	{"core.optimize_ms", "ms", "lower"},
	{"core.search_iterations", "count", "lower"},
	{"core.moves", "count", "lower"},
	{"core.replications", "count", "lower"},
	{"core.evictions", "count", "lower"},
	{"core.period_replications_min", "count", "higher"},
	{"core.period_iterations_min", "count", "higher"},
	{"core.sol_ratio", "ratio", "lower"},
	{"core.sharded_period_ms", "ms", "lower"},
	{"core.sharded_imbalance", "ratio", "lower"},
	// reconcile: the plan carried out on the datanodes.
	{"reconcile.replicates", "count", "lower"},
	{"reconcile.deletes", "count", "lower"},
	{"reconcile.move_ms_p50", "ms", "lower"},
	{"reconcile.converge_ms", "ms", "lower"},
	// runtime and the generator itself.
	{"runtime.alloc_kb_per_op", "kB", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"runtime.cpu_s", "s", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
	{"trace.spans", "count", "lower"},
	{"gen.late_ms_p95", "ms", "lower"},
	{"gen.samples", "count", "higher"},
}

// layerInputs is what the traced phase hands to layerMetrics.
type layerInputs struct {
	w          *workload
	timed      *phase
	base       *phase
	lat, late  latencySummary
	spans      spanStats
	periods    []period
	converge   time.Duration
	ratio      float64
	moved      counters // registry growth over the traced phase
	before     usage
	after      usage
	failed     int
	attempted  int
	moves      []time.Duration
	replicates int64
	deletes    int64
	accessed   map[core.BlockID]int64 // usage-monitor counts at the end of the timed phase
}

// namenodeTypes are the message types with a namenode.<type>_us metric.
var namenodeTypes = []string{
	"create_file", "add_block", "complete_file", "get_locations", "stat_file",
	"list_files", "delete_file", "heartbeat_delta", "block_received",
}

// layerMetrics fills m with every per-layer metric: span aggregates of
// the traced phase first, then the probes.
func layerMetrics(m metricSet, in layerInputs, env *benchEnv, scratch string, probes bool) error {
	st, elapsed := in.spans, in.timed.Elapsed
	ops := float64(max(in.timed.Attempted, 1))

	if probes {
		if err := runProbes(m, in, env, scratch); err != nil {
			return err
		}
	}
	calls, nnCalls, nnErrs, nnWeighted := 0, 0, 0, 0.0
	for name, n := range st.count {
		switch {
		case strings.HasPrefix(name, "nn."):
			nnCalls += n
			nnErrs += st.errs[name]
			nnWeighted += float64(n) * st.p50(name) * 1e3
			calls += n
		case strings.HasPrefix(name, "dn."), name == spanTransfer:
			calls += n
		}
	}
	streams := st.count[spanWriteStream] + st.count[spanReadStream] + st.count[spanForward]
	m.set("proto.calls", float64(calls), "count")
	m.set("proto.stream_opens", float64(streams), "count")
	m.set("proto.chunks", in.moved.chunks, "count")
	m.set("proto.wire_bytes_per_user_byte", perUnit(in.moved.wire, float64(in.timed.Bytes)), "ratio")

	m.set("store.put_us", st.p50(spanStorePut)*1e3, "us")
	m.set("store.get_us", st.p50(spanStoreGet)*1e3, "us")
	m.set("store.put_mbps", perUnit(float64(st.bytes[spanStorePut])/1e6, st.total(spanStorePut)/1e3), "MB/s")
	m.set("store.get_mbps", perUnit(float64(st.bytes[spanStoreGet])/1e6, st.total(spanStoreGet)/1e3), "MB/s")
	m.set("store.ops", float64(st.count[spanStorePut]+st.count[spanStoreGet]), "count")
	m.set("store.busy_share", (st.total(spanStorePut)+st.total(spanStoreGet))/1e3/elapsed.Seconds(), "fraction")

	m.set("datanode.write_stream_ms", st.p50(spanWriteStream), "ms")
	m.set("datanode.read_stream_ms", st.p50(spanReadStream), "ms")
	m.set("datanode.pipeline_hop_ms", st.p50(spanForward), "ms")
	m.set("datanode.self_write_ms", st.selfP50(spanWriteStream), "ms")
	m.set("datanode.self_read_ms", st.selfP50(spanReadStream), "ms")
	m.set("datanode.forward_streams", float64(st.count[spanForward]), "count")
	beats := append(append([]float64(nil), st.durMs["nn.heartbeat_delta"]...), st.durMs["nn.heartbeat"]...)
	m.set("datanode.heartbeat_us", median(beats)*1e3, "us")
	m.set("datanode.heartbeats", float64(len(beats)), "count")

	for _, typ := range namenodeTypes {
		m.set("namenode."+typ+"_us", st.p50("nn."+typ)*1e3, "us")
	}
	self := 0.0
	if nnCalls > 0 {
		self = nnWeighted/float64(nnCalls) - m["proto.rpc_echo_us"].Value
	}
	m.set("namenode.self_us", self, "us")
	m.set("namenode.calls", float64(nnCalls), "count")
	m.set("namenode.errors", float64(nnErrs), "count")
	var walls []float64
	for _, p := range in.periods {
		walls = append(walls, p.WallMs)
	}
	m.set("namenode.optimize_lock_hold_ms", median(walls), "ms")

	var opSelf, opDur []float64
	var selfSum, durSum float64
	for name := range st.count {
		if strings.HasPrefix(name, "op.") {
			opSelf = append(opSelf, st.selfMs[name]...)
			opDur = append(opDur, st.durMs[name]...)
		}
	}
	for i := range opSelf {
		selfSum += opSelf[i]
		durSum += opDur[i]
	}
	m.set("client.self_ms", median(opSelf), "ms")
	m.set("client.self_share", perUnit(selfSum, durSum), "fraction")
	m.set("client.lat_p95_ms", in.lat.P95, "ms")
	m.set("client.lat_tail_ms", in.lat.Tail, "ms")
	m.set("client.lat_tail_pct", in.lat.TailPct, "%")
	m.set("client.lat_max_ms", in.lat.Max, "ms")
	stalled := in.timed.stalled()
	m.set("client.stall_lat_p50_ms", median(stalled), "ms")
	m.set("client.stall_ops", float64(len(stalled)), "count")
	m.set("client.user_mbps", float64(in.timed.Bytes)/1e6/elapsed.Seconds(), "MB/s")
	m.set("client.retries", in.moved.retries, "count")
	m.set("client.failovers", in.moved.failovers, "count")
	m.set("client.failed_op_frac", float64(in.failed)/float64(max(in.attempted, 1)), "fraction")

	minRepl, minIter := 0, 0
	for i, p := range in.periods {
		if i == 0 || p.Replications < minRepl {
			minRepl = p.Replications
		}
		if i == 0 || p.Iterations < minIter {
			minIter = p.Iterations
		}
	}
	m.set("core.period_replications_min", float64(minRepl), "count")
	m.set("core.period_iterations_min", float64(minIter), "count")
	m.set("core.sol_ratio", in.ratio, "ratio")
	// What the probes do not reproduce of a live period: writing the
	// forecast into every block, the dead-node repair pass, telemetry
	// export. Reported as the residual, so a gap shows up here.
	m.set("namenode.apply_ms", m["namenode.optimize_lock_hold_ms"].Value-
		m["popularity.snapshot_ms"].Value-m["popularity.predict_ms"].Value-m["core.optimize_ms"].Value, "ms")

	var moveMs []float64
	for _, d := range in.moves {
		moveMs = append(moveMs, float64(d)/1e6)
	}
	m.set("reconcile.replicates", float64(in.replicates), "count")
	m.set("reconcile.deletes", float64(in.deletes), "count")
	m.set("reconcile.move_ms_p50", median(moveMs), "ms")
	m.set("reconcile.converge_ms", float64(in.converge)/1e6, "ms")

	m.set("runtime.alloc_kb_per_op", float64(in.after.mem.TotalAlloc-in.before.mem.TotalAlloc)/1e3/ops, "kB")
	m.set("runtime.allocs_per_op", float64(in.after.mem.Mallocs-in.before.mem.Mallocs)/ops, "count")
	m.set("runtime.gc_pause_total_ms", float64(in.after.mem.PauseTotalNs-in.before.mem.PauseTotalNs)/1e6, "ms")
	m.set("runtime.peak_rss_mb", peakRSSMB(), "MB")
	m.set("runtime.cpu_s", (in.after.cpu - in.before.cpu).Seconds(), "s")
	m.set("trace.overhead_frac", traceOverhead(in), "fraction")
	spanCount := 0
	for _, n := range st.count {
		spanCount += n
	}
	m.set("trace.spans", float64(spanCount), "count")
	m.set("gen.late_ms_p95", in.late.P95, "ms")
	m.set("gen.samples", float64(in.lat.N), "count")
	return nil
}

// runProbes runs every fixed-input probe. They take seconds, so tests
// that only check span accounting leave them out.
func runProbes(m metricSet, in layerInputs, env *benchEnv, scratch string) error {
	if err := probeFrames(m); err != nil {
		return err
	}
	if err := probeTransport(m); err != nil {
		return err
	}
	if err := probePipeline(m, scratch); err != nil {
		return err
	}
	if err := probePopularity(m, in.accessed); err != nil {
		return err
	}
	placement, err := env.c.nn.PlacementClone()
	if err != nil {
		return fmt.Errorf("bench: core probe: %w", err)
	}
	if err := probeCore(m, placement, in.w.datasetBlocks()); err != nil {
		return err
	}
	return probeSharded(m)
}

// perUnit divides, reporting 0 when there is nothing to divide by.
func perUnit(total, units float64) float64 {
	if units <= 0 {
		return 0
	}
	return total / units
}

// traceOverhead compares the traced phase with the untraced one run
// just before it on the same cluster: throughput lost in a closed loop,
// median latency gained in an open loop (whose throughput is fixed by
// the offered rate).
func traceOverhead(in layerInputs) float64 {
	if in.w.Rate > 0 {
		plain := summarize(in.base.LatMs).P50
		return perUnit(in.lat.P50-plain, plain)
	}
	plain := float64(in.base.Attempted-in.base.Failed) / in.base.Elapsed.Seconds()
	traced := float64(in.timed.Attempted-in.timed.Failed) / in.timed.Elapsed.Seconds()
	return perUnit(plain-traced, plain)
}

// peakRSSMB reads the process's peak resident set from /proc; 0 where
// that is not available.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1e3
			}
		}
	}
	return 0
}
