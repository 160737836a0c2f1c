#!/usr/bin/env bash
# e2e_smoke.sh — correctness gate over the end-to-end benchmark's own
# life cycle, not a timing check.
#
# Runs two short aurora-bench workloads (bench/bench.sh, the command in
# BENCHMARK.json). Each run boots and tears down an in-process cluster
# five times on kernel-assigned ports — the sequence in which a
# connection pool keyed by address can meet a new server on a dead one's
# port (DESIGN.md §15.7) — and ends in the byte-level + fsck +
# CheckPlacement oracle. The gate: exit status 0 (oracle green) and zero
# failed operations. See `make bench-smoke-e2e`.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

for workload in meta_small write_pipeline; do
    out=$(bash bench/bench.sh --workload "$workload" --seed 1 --seconds 2 --trace 0) || {
        printf '%s\n' "$out"
        echo "e2e-smoke: $workload exited non-zero (oracle or aborted run)" >&2
        exit 1
    }
    report=$(printf '%s\n' "$out" | tail -n 1)
    case "$report" in
    *'"correct":true'*'"failed":0,'*) ;;
    *)
        printf '%s\n' "$out"
        echo "e2e-smoke: $workload reported failed operations or an incorrect result" >&2
        exit 1
        ;;
    esac
    echo "e2e-smoke: $workload OK — $report"
done
