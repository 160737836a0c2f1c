GO ?= go

.PHONY: all build test vet lint race bench bench-check chaos fuzz-smoke telemetry-smoke testbed-repro scenario-smoke bench-e2e bench-smoke-e2e loc ci

# Hot-path benchmarks recorded by `make bench` (see README.md,
# "Benchmark ledger"). BENCH_LABEL picks the ledger column. The metrics
# record path (//lint:hotpath roots) is benched separately so its
# allocs/op rows — expected 0 — sit in the same ledger.
BENCH_PATTERN ?= ^(BenchmarkLocalSearchNode|BenchmarkLocalSearchRack|BenchmarkOptimizePeriod|BenchmarkOptimizePeriodSharded|BenchmarkPlacementClone|BenchmarkDataPathThroughput|BenchmarkSmallCreate|BenchmarkFrameListReply|BenchmarkRPCRoundTrip|BenchmarkNameNodeListFiles|BenchmarkNameNodeReconcileConverged|BenchmarkNameNodeReconcileDraining|BenchmarkNameNodeDecommissionTick)$$
BENCH_METRICS_PATTERN ?= ^(BenchmarkLogHistogramObserve|BenchmarkGaugeAdd|BenchmarkRegistryCounterLookupInc)$$
BENCH_LABEL ?= after

all: build test

# Both tag variants must compile: the default build and the debug build
# with runtime invariant assertions (internal/invariant.Enabled).
build:
	$(GO) build ./...
	$(GO) build -tags invariantdebug ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The project-specific analyzer, after go vet and a gofmt check (any
# file gofmt would rewrite fails the target): one typed whole-module
# pass over thirteen rules, each kept on evidence (a bug it caught or a
# seeded mutation only it reports; DESIGN.md §11). Any finding fails.
lint: vet
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/aurora-lint ./...

# Race detector with invariant assertions compiled in, so every
# optimizer period in the stress tests also checks the paper invariants.
race:
	$(GO) test -race -tags invariantdebug ./...

# Seeded chaos gate under the race detector: a third of the datanodes
# crash mid-run (plus latency spikes, dropped heartbeats and a corrupt
# replica); no block may be lost and the same seed must reproduce the
# same fault log. Runs twice: against the classic namenode and against a
# 4-shard partitioned block map (recovery must be shard-count-
# independent). See DESIGN.md §10. Then ten runs without -race: the
# detector's slowdown changes which interleavings occur, and the
# collapsed-rack-spread failure (ROADMAP gap b) only ever showed without
# it. The buffer-lifetime test rides along: the same build poisons every
# recycled block buffer on release, so a use-after-release on the data
# path fails here (DESIGN.md §15.6).
chaos:
	$(GO) test -race -tags invariantdebug -run '^TestChaosCrashRecoverNoDataLoss$$' -v -timeout 120s ./internal/dfs/
	AURORA_CHAOS_SHARDS=4 $(GO) test -race -tags invariantdebug -count=1 -run '^TestChaosCrashRecoverNoDataLoss$$' -v -timeout 120s ./internal/dfs/
	$(GO) test -tags invariantdebug -count=10 -run '^TestChaosCrashRecoverNoDataLoss$$' -timeout 300s ./internal/dfs/
	$(GO) test -race -tags invariantdebug -count=3 -run '^TestBlockBufferLifetime$$' ./internal/dfs/

# Short native-fuzz smoke over the checked-in corpora: the wire-frame
# decoder, the chunk receiver, the xor-splitmix64 digest algebra and the
# report-tracker merge each fuzz for a few seconds, so decoder panics,
# accepted bad chunks and merge regressions surface here without a long
# campaign. See DESIGN.md §15. The frame corpus holds a 17 kB list_files
# reply; minimizing a mutation of it (or of a chunk stream) under the
# default 60 s budget would stall the whole smoke.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/dfs/proto
	$(GO) test -run '^$$' -fuzz '^FuzzRecvChunks$$' -fuzztime 5s -fuzzminimizetime 1s ./internal/dfs/proto
	$(GO) test -run '^$$' -fuzz '^FuzzDigestMerge$$' -fuzztime 5s ./internal/dfs/proto
	$(GO) test -run '^$$' -fuzz '^FuzzTrackerMerge$$' -fuzztime 5s ./internal/dfs/datanode

# Boot the testbed with a live telemetry endpoint, scrape /metrics once
# and assert the optimizer SOL series, machine-load gauges and RPC
# latency histograms are exposed. See DESIGN.md §12.
telemetry-smoke:
	bash scripts/telemetry_smoke.sh

# The documented fault run (EXPERIMENTS.md, "Recovery time vs. failure
# rate") twice. Its clusters run on the replay's clock, so the two
# stdouts must be byte-identical: rows, command counts, panels (b) and
# (c), the fault log and the counters.
TESTBED_REPRO = -nodes 6 -files 8 -jobs 2000 -fault-schedule random -fault-seed 7
testbed-repro:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/testbed" ./cmd/aurora-testbed && \
	"$$dir/testbed" $(TESTBED_REPRO) >"$$dir/1" && \
	"$$dir/testbed" $(TESTBED_REPRO) >"$$dir/2" && \
	diff "$$dir/1" "$$dir/2" && echo "testbed-repro: identical stdout"

# Run the seeded predictor scenario matrix twice and assert byte-identical
# output and metric dumps, nonzero aurora_predictor_* telemetry, and that the ewma
# and seasonal forecasters' mean per-period SOL are each strictly below
# reactive's on the diurnal and flashcrowd scenarios. See DESIGN.md §17.
scenario-smoke:
	bash scripts/scenario_smoke.sh

# Run the core hot-path benchmarks and merge the numbers into
# BENCH_core.json under $(BENCH_LABEL). The intermediate file keeps a
# failed bench run from feeding partial output into the ledger.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 2x -benchmem . > bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_METRICS_PATTERN)' -benchtime 100x -benchmem ./internal/metrics >> bench.out
	$(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -in bench.out -out BENCH_core.json
	@rm -f bench.out

# Alloc ratchet: re-run the hot-path benchmarks and fail if any
# allocs/op regressed against the committed ledger (10% + 2 allocs
# tolerance; ns/op is not gated — timing noise is not a regression).
bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 2x -benchmem . > bench.out
	$(GO) test -run '^$$' -bench '$(BENCH_METRICS_PATTERN)' -benchtime 100x -benchmem ./internal/metrics >> bench.out
	$(GO) run ./cmd/benchjson -check $(BENCH_LABEL) -in bench.out -out BENCH_core.json
	@rm -f bench.out

# The end-to-end ruler (BENCHMARK.json): all four workloads, untraced
# then traced, reports under bench/out/. See bench/README.md.
SEED ?= 1
bench-e2e:
	bash bench/run.sh $(SEED)

# Two 2-second aurora-bench workloads as a correctness gate, no timing
# assertion: each run reboots the in-process cluster five times on
# kernel-assigned ports and ends in the oracle; it must exit 0 with no
# failed operation (scripts/e2e_smoke.sh, DESIGN.md §15.7).
bench-smoke-e2e:
	bash scripts/e2e_smoke.sh

# Go line counts, non-test then _test.go, outside bench/ and testdata/,
# then non-test lines per package directory: the ruler behind
# ROADMAP.md's "Size" figures.
LOC_FIND = find . -name '*.go' -not -path './bench/*' -not -path '*/testdata/*'
loc:
	@echo "non-test $$($(LOC_FIND) -not -name '*_test.go' -exec cat {} + | wc -l)"
	@echo "test     $$($(LOC_FIND) -name '*_test.go' -exec cat {} + | wc -l)"
	@$(LOC_FIND) -not -name '*_test.go' -exec wc -l {} + | \
		awk '$$2 != "total" { sub(/\/[^\/]*$$/, "", $$2); n[$$2] += $$1 } END { for (d in n) printf "%8d %s\n", n[d], d }' | sort -k2

ci: build lint test race
