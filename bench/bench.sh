#!/usr/bin/env bash
# Entry point named in BENCHMARK.json: builds aurora-bench from source
# into .bench_build/ (the Go build cache and temp files go there too, so
# nothing is written outside the checkout) and runs it with the
# arguments given. A second run finds the binary up to date.
#
#   bash bench/bench.sh --workload read_skewed --seed 1 --seconds 16 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local

go build -o "$build/aurora-bench" ./bench
exec "$build/aurora-bench" "$@"
