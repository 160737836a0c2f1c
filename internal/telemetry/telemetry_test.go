package telemetry

import (
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/metrics"
)

func scrape(t *testing.T, url string) (string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header
}

// End-to-end exposition: populate a registry, serve it over HTTP, scrape
// /metrics, parse the text format back and check it round-trips against
// Registry.Snapshot().
func TestMetricsEndpointRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("aurora_rpc_errors", metrics.L("type", "read_block")).Add(3)
	reg.Counter("dfs.client.retries").Add(7) // legacy dot name must sanitize
	reg.Gauge("aurora_machine_load", metrics.L("machine", "0")).Set(1.5)
	reg.Gauge("aurora_optimizer_sol").Set(42.25)
	h := reg.Histogram("aurora_rpc_latency_seconds", metrics.L("type", "read_block"))
	h.Observe(0.01)
	h.Observe(0.02)

	srv, err := Start("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	body, hdr := scrape(t, "http://"+srv.Addr()+"/metrics")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	parsed, err := ParseProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("ParseProm: %v\nbody:\n%s", err, body)
	}

	checks := map[string]float64{
		`aurora_rpc_errors_total{type="read_block"}`:                     3,
		`dfs_client_retries_total`:                                       7,
		`aurora_machine_load{machine="0"}`:                               1.5,
		`aurora_optimizer_sol`:                                           42.25,
		`aurora_rpc_latency_seconds_count{type="read_block"}`:            2,
		`aurora_rpc_latency_seconds_bucket{type="read_block",le="+Inf"}`: 2,
	}
	for series, want := range checks {
		got, ok := parsed[series]
		if !ok {
			t.Errorf("series %s missing from exposition\nbody:\n%s", series, body)
			continue
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}
	if sum := parsed[`aurora_rpc_latency_seconds_sum{type="read_block"}`]; math.Abs(sum-0.03) > 1e-9 {
		t.Errorf("latency sum = %v, want 0.03", sum)
	}
	for _, typeLine := range []string{
		"# TYPE aurora_rpc_errors_total counter",
		"# TYPE aurora_machine_load gauge",
		"# TYPE aurora_rpc_latency_seconds histogram",
	} {
		if !strings.Contains(body, typeLine) {
			t.Errorf("missing %q in exposition", typeLine)
		}
	}

	// Round-trip every snapshot counter and gauge against the parse.
	snap := reg.Snapshot()
	for _, c := range snap.Counters {
		series := PromCounterName(c.Name) + promLabels(c.Labels)
		if got := parsed[series]; got != float64(c.Value) {
			t.Errorf("counter %s: parsed %v, snapshot %d", series, got, c.Value)
		}
	}
	for _, g := range snap.Gauges {
		series := PromName(g.Name) + promLabels(g.Labels)
		if got := parsed[series]; got != g.Value {
			t.Errorf("gauge %s: parsed %v, snapshot %v", series, got, g.Value)
		}
	}

	// Two scrapes of unchanged state are byte-identical (deterministic
	// snapshot ordering).
	body2, _ := scrape(t, "http://"+srv.Addr()+"/metrics")
	if body != body2 {
		t.Error("consecutive scrapes of unchanged state differ")
	}

	if health, _ := scrape(t, "http://"+srv.Addr()+"/healthz"); health != "ok\n" {
		t.Errorf("/healthz = %q", health)
	}
	if idx, _ := scrape(t, "http://"+srv.Addr()+"/debug/pprof/"); !strings.Contains(idx, "profile") {
		t.Error("pprof index not served")
	}
}

func TestPromNameSanitizes(t *testing.T) {
	cases := map[string]string{
		"dfs.client.retries": "dfs_client_retries",
		"aurora_rpc":         "aurora_rpc",
		"9lives":             "_lives",
		"a-b c":              "a_b_c",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
	if got := PromCounterName("x_total"); got != "x_total" {
		t.Errorf("PromCounterName(x_total) = %q, want no double suffix", got)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"noseparator", `metric{a="b c"}`} {
		if _, err := ParseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseProm(%q) succeeded, want error", bad)
		}
	}
	out, err := ParseProm(strings.NewReader("# comment\n\nm 1\n"))
	if err != nil || out["m"] != 1 {
		t.Errorf("ParseProm minimal = %v, %v", out, err)
	}
}

// The optimizer exporter maps a period's result onto the SOL/iteration
// series the smoke test and dashboards read.
func TestExportOptimizePeriod(t *testing.T) {
	reg := metrics.NewRegistry()
	res := core.ShardedOptimizeResult{
		Search: core.SearchResult{
			InitialCost: 10.5,
			FinalCost:   4.25,
			Iterations:  9,
			Movements:   6,
			Moves:       4,
			Swaps:       3,
			RackMoves:   1,
			RackSwaps:   1,
		},
		Replications: 2,
		Evictions:    1,
	}
	ExportShardedOptimizePeriod(reg, res, 50*time.Millisecond)
	ExportShardedOptimizePeriod(reg, res, 50*time.Millisecond)

	if got := reg.Gauge("aurora_optimizer_sol").Value(); got != 4.25 {
		t.Errorf("sol = %v, want 4.25", got)
	}
	if got := reg.Gauge("aurora_optimizer_sol_before").Value(); got != 10.5 {
		t.Errorf("sol_before = %v, want 10.5", got)
	}
	if got := reg.Counter("aurora_optimizer_periods").Value(); got != 2 {
		t.Errorf("periods = %d, want 2", got)
	}
	if got := reg.Counter("aurora_optimizer_ops", metrics.L("kind", "move")).Value(); got != 8 {
		t.Errorf("move ops = %d, want 8", got)
	}
	if got := reg.Counter("aurora_optimizer_ops", metrics.L("kind", "rack_swap")).Value(); got != 2 {
		t.Errorf("rack_swap ops = %d, want 2", got)
	}
	if got := reg.Histogram("aurora_optimizer_wall_seconds").Count(); got != 2 {
		t.Errorf("wall histogram count = %d, want 2", got)
	}
}

func TestExportMachineLoadsAndHotspots(t *testing.T) {
	reg := metrics.NewRegistry()
	ExportMachineLoads(reg, []float64{1, 7.5, 3})
	if got := reg.Gauge("aurora_machine_load", metrics.L("machine", "1")).Value(); got != 7.5 {
		t.Errorf("machine 1 load = %v, want 7.5", got)
	}
	if got := reg.Gauge("aurora_machine_load_max").Value(); got != 7.5 {
		t.Errorf("max load = %v, want 7.5", got)
	}

	pops := map[core.BlockID]int64{}
	for i := 0; i < 10; i++ {
		pops[core.BlockID(i)] = int64(100 - i)
	}
	ExportHotspots(reg, pops)
	if got := reg.Gauge("aurora_hotspot_popularity", metrics.L("rank", "0")).Value(); got != 100 {
		t.Errorf("rank 0 popularity = %v, want 100", got)
	}
	if got := reg.Gauge("aurora_hotspot_block", metrics.L("rank", "0")).Value(); got != 0 {
		t.Errorf("rank 0 block = %v, want block 0", got)
	}
	// Shrinking working set zeroes stale ranks.
	ExportHotspots(reg, map[core.BlockID]int64{core.BlockID(3): 5})
	if got := reg.Gauge("aurora_hotspot_popularity", metrics.L("rank", "1")).Value(); got != 0 {
		t.Errorf("stale rank 1 popularity = %v, want 0", got)
	}
}
