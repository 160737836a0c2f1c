package telemetry

import (
	"strconv"
	"time"

	"aurora/internal/core"
	"aurora/internal/metrics"
	"aurora/internal/popularity"
)

// HotspotRanks is how many of the hottest blocks get a per-rank gauge.
const HotspotRanks = 5

// ExportShardedOptimizePeriod publishes one optimizer period — every
// live period is a sharded one, with one shard when unsharded. The
// unlabeled aggregate series map onto the paper's quantities: SOL is the
// solution cost λ = max_m Σ_i p_i·x_im/k_i across shards (InitialCost
// before the local search, FinalCost after ε-admissible termination),
// Iterations is how many operations Algorithm 1/2 performed before no
// admissible operation remained, and the per-kind counters split those
// into Move/Swap/RackMove/RackSwap. Then come per-shard SOL/iteration/
// wall-time series labeled with the shard index, the cross-shard
// imbalance gauge (max/mean over the shards' local objectives λ_s) and
// each shard's replication-budget share after the rebalance pass.
func ExportShardedOptimizePeriod(reg *metrics.Registry, res core.ShardedOptimizeResult, wall time.Duration) {
	reg.Counter("aurora_optimizer_periods").Inc()
	reg.Gauge("aurora_optimizer_sol").Set(res.Search.FinalCost)
	reg.Gauge("aurora_optimizer_sol_before").Set(res.Search.InitialCost)
	reg.Gauge("aurora_optimizer_iterations").Set(float64(res.Search.Iterations))
	reg.Counter("aurora_optimizer_ops", metrics.L("kind", "move")).Add(int64(res.Search.Moves))
	reg.Counter("aurora_optimizer_ops", metrics.L("kind", "swap")).Add(int64(res.Search.Swaps))
	reg.Counter("aurora_optimizer_ops", metrics.L("kind", "rack_move")).Add(int64(res.Search.RackMoves))
	reg.Counter("aurora_optimizer_ops", metrics.L("kind", "rack_swap")).Add(int64(res.Search.RackSwaps))
	reg.Counter("aurora_optimizer_movements").Add(int64(res.Search.Movements))
	reg.Counter("aurora_optimizer_replications").Add(int64(res.Replications))
	reg.Counter("aurora_optimizer_evictions").Add(int64(res.Evictions))
	reg.Histogram("aurora_optimizer_wall_seconds").Observe(wall.Seconds())
	reg.Gauge("aurora_shard_imbalance").Set(res.Imbalance)
	for i, r := range res.PerShard {
		shard := metrics.L("shard", strconv.Itoa(i))
		reg.Gauge("aurora_optimizer_sol", shard).Set(r.Search.FinalCost)
		reg.Gauge("aurora_optimizer_sol_before", shard).Set(r.Search.InitialCost)
		reg.Gauge("aurora_optimizer_iterations", shard).Set(float64(r.Search.Iterations))
		if i < len(res.PerShardWallNanos) {
			reg.Histogram("aurora_optimizer_wall_seconds", shard).
				Observe(time.Duration(res.PerShardWallNanos[i]).Seconds())
		}
		if i < len(res.NextShares) {
			reg.Gauge("aurora_shard_budget_share", shard).Set(float64(res.NextShares[i]))
		}
	}
}

// ExportPredictionError publishes one optimization period's
// prediction-quality scores: the weighted absolute error and top-K
// hot-set overlap of the forecast the period ran under versus the
// realized window counts (popularity.WeightedAbsError /
// popularity.TopKOverlap). Callers label the series with the predictor
// name (and scenario, in the simulator's matrix); the period counter
// makes "is the forecaster alive at all" a one-series alert.
func ExportPredictionError(reg *metrics.Registry, wae, topK float64, labels ...metrics.Label) {
	reg.Counter("aurora_predictor_periods", labels...).Inc()
	reg.Gauge("aurora_predictor_wae", labels...).Set(wae)
	reg.Gauge("aurora_predictor_topk_overlap", labels...).Set(topK)
	reg.Histogram("aurora_predictor_wae_hist", labels...).Observe(wae)
}

// ExportMachineLoads publishes per-machine load gauges (index =
// MachineID) plus the λ objective, the cluster-wide maximum.
func ExportMachineLoads(reg *metrics.Registry, loads []float64) {
	maxLoad := 0.0
	for m, load := range loads {
		reg.Gauge("aurora_machine_load", metrics.L("machine", strconv.Itoa(m))).Set(load)
		if load > maxLoad {
			maxLoad = load
		}
	}
	reg.Gauge("aurora_machine_load_max").Set(maxLoad)
}

// ExportHotspots publishes the HotspotRanks most popular blocks from a
// usage-monitor snapshot as rank-indexed gauges: the popularity value
// and the block it belongs to. Ranks beyond the number of live keys are
// zeroed so stale hotspots don't linger after blocks are deleted.
// Ordering is deterministic: popularity descending, block ID ascending.
func ExportHotspots(reg *metrics.Registry, pops map[core.BlockID]int64) {
	top := popularity.TopK(pops, HotspotRanks)
	for rank := 0; rank < HotspotRanks; rank++ {
		label := metrics.L("rank", strconv.Itoa(rank))
		if rank < len(top) {
			reg.Gauge("aurora_hotspot_popularity", label).Set(float64(pops[top[rank]]))
			reg.Gauge("aurora_hotspot_block", label).Set(float64(top[rank]))
		} else {
			reg.Gauge("aurora_hotspot_popularity", label).Set(0)
			reg.Gauge("aurora_hotspot_block", label).Set(0)
		}
	}
}
