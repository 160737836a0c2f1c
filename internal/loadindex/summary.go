package loadindex

// Shard-level load summaries: the max/mean statistics the cross-shard
// rebalance pass and the telemetry exporters compute over per-shard
// cost vectors, without walking any per-block state and without
// allocating.

// MaxMean returns the maximum and arithmetic mean of v. An empty vector
// reports (0, 0).
func MaxMean(v []float64) (max, mean float64) {
	if len(v) == 0 {
		return 0, 0
	}
	sum := 0.0
	max = v[0]
	for _, x := range v {
		sum += x
		if x > max {
			max = x
		}
	}
	return max, sum / float64(len(v))
}

// Imbalance returns max/mean of v — the cross-shard imbalance statistic
// exported as a gauge. A zero mean (idle system) reports 0 rather than
// NaN so the gauge stays plottable.
func Imbalance(v []float64) float64 {
	max, mean := MaxMean(v)
	if mean <= 0 {
		return 0
	}
	return max / mean
}
