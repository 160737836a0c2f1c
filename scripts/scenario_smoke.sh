#!/usr/bin/env bash
# scenario_smoke.sh — CI smoke test for the predictor scenario matrix.
#
# Runs the seeded flashcrowd+diurnal sweep (reactive vs ewma vs seasonal)
# twice and asserts three things:
#   1. determinism — the two runs' stdout and metric dumps are
#      byte-identical;
#   2. telemetry  — the exported aurora_predictor_* series are present
#      and nonzero in the Prometheus dump;
#   3. the paper claim — each forecaster's (ewma's and seasonal's) mean
#      per-period SOL is STRICTLY lower than reactive's on both scenarios.
# See DESIGN.md §17 and `make scenario-smoke`.
set -euo pipefail

bin=$(mktemp /tmp/aurora-sim.XXXXXX)
dir=$(mktemp -d /tmp/scenario-smoke.XXXXXX)
cleanup() {
    status=$?
    trap - EXIT INT TERM
    rm -rf "$bin" "$dir"
    exit "$status"
}
trap cleanup EXIT INT TERM

go build -o "$bin" ./cmd/aurora-sim

run_matrix() {
    "$bin" -experiment scenarios \
        -scenarios diurnal,flashcrowd \
        -predictors reactive,ewma,seasonal \
        -seed 42 -files 60 -hours 24 -jobs-per-hour 600 -period-hours 6 \
        -metrics-out "$1"
}

run_matrix "$dir/metrics1.prom" >"$dir/run1.txt"
run_matrix "$dir/metrics2.prom" >"$dir/run2.txt"

fail() {
    cat "$dir/run1.txt" || true
    echo "scenario-smoke: $1" >&2
    exit 1
}

# 1. Byte-identical output across runs (the -metrics-out path differs, so
# strip that trailer line before diffing; the matrix itself must match).
grep -v '^metrics written to ' "$dir/run1.txt" >"$dir/run1.stable"
grep -v '^metrics written to ' "$dir/run2.txt" >"$dir/run2.stable"
diff -u "$dir/run1.stable" "$dir/run2.stable" \
    || fail "matrix output is not byte-identical across runs"
cmp "$dir/metrics1.prom" "$dir/metrics2.prom" \
    || fail "metrics dump is not byte-identical across runs"

# 2. Prediction-error telemetry exported and nonzero.
grep -q '^aurora_predictor_periods_total{' "$dir/metrics1.prom" \
    || fail "aurora_predictor_periods_total missing from metrics dump"
awk '/^aurora_predictor_periods_total\{/ { if ($NF + 0 > 0) found = 1 } END { exit !found }' "$dir/metrics1.prom" \
    || fail "aurora_predictor_periods_total is zero"
grep -q '^aurora_predictor_wae{' "$dir/metrics1.prom" \
    || fail "aurora_predictor_wae missing from metrics dump"
awk '/^aurora_predictor_wae\{/ { if ($NF + 0 > 0) found = 1 } END { exit !found }' "$dir/metrics1.prom" \
    || fail "aurora_predictor_wae is zero for every cell"
grep -q '^aurora_predictor_topk_overlap{' "$dir/metrics1.prom" \
    || fail "aurora_predictor_topk_overlap missing from metrics dump"

# 3. Each forecaster strictly beats reactive mean SOL on both scenarios.
sol() {
    sed -n "s/^cell scenario=$1 predictor=$2 mean_sol=\([0-9.]*\).*/\1/p" "$dir/run1.txt"
}
for scenario in diurnal flashcrowd; do
    reactive=$(sol "$scenario" reactive)
    [ -n "$reactive" ] || fail "missing reactive cell line for scenario $scenario"
    for predictor in ewma seasonal; do
        got=$(sol "$scenario" "$predictor")
        [ -n "$got" ] || fail "missing $predictor cell line for scenario $scenario"
        awk -v s="$got" -v r="$reactive" 'BEGIN { exit !(s + 0 < r + 0) }' \
            || fail "$scenario: $predictor mean SOL $got not strictly below reactive $reactive"
        echo "scenario-smoke: $scenario $predictor SOL $got < reactive $reactive"
    done
done

echo "scenario-smoke: OK — deterministic matrix, nonzero predictor telemetry, ewma and seasonal beat reactive"
