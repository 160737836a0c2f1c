#!/usr/bin/env bash
# telemetry_smoke.sh — CI smoke test for the live telemetry subsystem.
#
# Boots the testbed experiment with -telemetry-addr, waits for the run to
# finish (the endpoint lingers afterwards so the final metrics stay
# scrapeable), scrapes /metrics once and asserts the optimizer's SOL
# series, the per-machine load gauges and the per-RPC latency histograms
# are all exposed. See DESIGN.md §12 and `make telemetry-smoke`.
set -euo pipefail

bin=$(mktemp /tmp/aurora-testbed.XXXXXX)
log=$(mktemp /tmp/telemetry-smoke.XXXXXX)
pid=""
cleanup() {
    status=$?
    trap - EXIT INT TERM
    if [ -n "$pid" ]; then
        kill "$pid" 2>/dev/null || true
    fi
    rm -f "$bin" "$log"
    exit "$status"
}
trap cleanup EXIT INT TERM

go build -o "$bin" ./cmd/aurora-testbed

# A small workload keeps the smoke under a minute; the linger window is
# generous so a slow runner still gets its scrape in.
"$bin" -nodes 6 -files 8 -jobs 60 \
    -telemetry-addr 127.0.0.1:0 -telemetry-linger 60s >"$log" 2>&1 &
pid=$!

# The resolved listen address is printed as "telemetry listening on A:P".
addr=""
i=0
while [ "$i" -lt 30 ]; do
    addr=$(sed -n 's/^telemetry listening on //p' "$log" | head -n 1 || true)
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        cat "$log"
        echo "telemetry-smoke: testbed exited before announcing its endpoint" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 1
done
if [ -z "$addr" ]; then
    cat "$log"
    echo "telemetry-smoke: no telemetry address after 30s" >&2
    exit 1
fi

# Wait for the run to complete so the optimizer series are final.
i=0
while [ "$i" -lt 300 ]; do
    grep -q '^telemetry lingering' "$log" && break
    if ! kill -0 "$pid" 2>/dev/null; then
        cat "$log"
        echo "telemetry-smoke: testbed exited before the linger window" >&2
        exit 1
    fi
    i=$((i + 1))
    sleep 1
done
if ! grep -q '^telemetry lingering' "$log"; then
    cat "$log"
    echo "telemetry-smoke: run did not finish within 300s" >&2
    exit 1
fi

metrics=$(curl -fsS "http://$addr/metrics")

fail() {
    printf '%s\n' "$metrics" | head -n 40 || true
    echo "telemetry-smoke: $1" >&2
    exit 1
}
printf '%s\n' "$metrics" | grep -q '^aurora_optimizer_sol ' \
    || fail "aurora_optimizer_sol missing from /metrics"
printf '%s\n' "$metrics" | grep -q '^aurora_machine_load{' \
    || fail "per-machine load gauges missing from /metrics"
printf '%s\n' "$metrics" | grep -q '^aurora_rpc_latency_seconds_bucket{' \
    || fail "per-RPC latency histograms missing from /metrics"

# Keep-alive transport (DESIGN.md §15.7): the run's RPCs and streams
# must mostly ride pooled connections.
conns() {
    printf '%s\n' "$metrics" | sed -n "s/^aurora_rpc_conns_total{event=\"$1\"} //p"
}
dials=$(conns dial)
reuses=$(conns reuse)
[ -n "$dials" ] && [ -n "$reuses" ] \
    || fail "aurora_rpc_conns_total{event=dial|reuse} missing from /metrics"
[ "$reuses" -gt "$dials" ] \
    || fail "connections reused ($reuses) not above connections dialed ($dials)"

curl -fsS "http://$addr/healthz" >/dev/null || fail "/healthz not serving"

lines=$(printf '%s\n' "$metrics" | wc -l)
echo "telemetry-smoke: OK — scraped $lines series lines from $addr ($reuses connections reused, $dials dialed)"
