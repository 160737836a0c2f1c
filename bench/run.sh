#!/usr/bin/env bash
# One full set of runs: the four timed runs, then the four traced runs,
# collected under bench/out/seed<N>/. Two sets with different seeds are
# what `go run ./bench -compare` needs to tell a change from noise:
#
#   bash bench/run.sh 1 && bash bench/run.sh 2
#   go run ./bench -compare bench/out/seed1 bench/out/seed2
set -euo pipefail

seed="${1:-1}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
workloads=(read_skewed write_pipeline meta_small optimize_foreground)

for trace in 0 1; do
	for w in "${workloads[@]}"; do
		bash bench/bench.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
	done
done

dest="bench/out/seed$seed"
mkdir -p "$dest"
for w in "${workloads[@]}"; do
	mv "bench/out/$w.json" "bench/out/$w.trace.json" "bench/out/$w.spans.json" "$dest/"
done
echo "reports and spans are in $dest"
