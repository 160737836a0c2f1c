package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// shrunken returns the named workload at a size a test can preload and
// drive in about a second: same cluster kind, same plan, same loop.
func shrunken(t *testing.T, name string) *workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "read_skewed":
		w.Files, w.FileBytes = 6, 512<<10
	case "write_pipeline":
		w.Files, w.Live, w.FileBytes = 4, 4, 256<<10
	case "meta_small":
		w.Files = 60
	case "optimize_foreground":
		w.Cluster.Nodes, w.Files, w.Rate = 8, 48, 200
	}
	return w
}

func testConfig(t *testing.T, w *workload, traced bool) runConfig {
	return runConfig{
		W: w, Seed: 7, Trace: traced, OutDir: t.TempDir(),
		Seconds: time.Second, Warmup: 100 * time.Millisecond,
		SetupReps: 1, EpiloguePeriods: 2,
	}
}

// TestWorkloadsRunCorrect drives each workload for one second at
// shrunken size through the same run the command uses: every operation
// must succeed and verify, the oracle must pass, and every end-to-end
// metric must come out as a usable number.
func TestWorkloadsRunCorrect(t *testing.T) {
	for _, full := range workloads() {
		t.Run(full.Name, func(t *testing.T) {
			rep, err := run(testConfig(t, shrunken(t, full.Name), false))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d violations=%v first error=%q",
					rep.Correct, rep.Attempted, rep.Failed, rep.Violations, rep.FirstError)
			}
			for _, d := range endToEnd {
				v, ok := rep.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("metric %s = %+v (measured=%v), want a positive %s", d.Name, v, ok, d.Unit)
				}
			}
			if len(rep.Periods) == 0 {
				t.Error("no optimizer period was recorded")
			}
		})
	}
}

// TestTracedRunAccountsForLayers checks the traced mode on the workload
// that crosses the most layers: the span file is written, the pipeline
// hops and store puts hang off the client's write stream (so its self
// time is less than its duration), and the streaming-path guard saw the
// traced client move the same chunks per byte as the untraced one.
func TestTracedRunAccountsForLayers(t *testing.T) {
	cfg := testConfig(t, shrunken(t, "write_pipeline"), true)
	cfg.SkipProbes = true
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("violations=%v first error=%q", rep.Violations, rep.FirstError)
	}
	m := rep.Metrics
	for _, name := range []string{
		"proto.chunks", "proto.stream_opens", "store.put_us", "datanode.forward_streams",
		"datanode.pipeline_hop_ms", "namenode.add_block_us", "namenode.block_received_us", "trace.spans",
	} {
		if !(m[name].Value > 0) {
			t.Errorf("%s = %v, want it exercised by a pipeline write", name, m[name].Value)
		}
	}
	if self, whole := m["datanode.self_write_ms"].Value, m["datanode.write_stream_ms"].Value; !(self < whole) {
		t.Errorf("write stream self time %.3f ms is not below its duration %.3f ms: hops and puts did not attach to it", self, whole)
	}
	if share := m["client.self_share"].Value; !(share > 0 && share < 1) {
		t.Errorf("client.self_share = %v, want strictly between 0 and 1", share)
	}
	data, err := os.ReadFile(spanPath(cfg))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if float64(len(spans)) != m["trace.spans"].Value {
		t.Errorf("span file holds %d spans, trace.spans says %v", len(spans), m["trace.spans"].Value)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, {9999, 99, true}, {1000, 99, true}, {999, 95, true},
		{200, 95, true}, {199, 90, true}, {100, 90, true}, {99, 75, true},
		{40, 75, true}, {39, 0, false}, {0, 0, false},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},   // overlaps 2: shared time counts once
		{ID: 4, Parent: 1, Start: 90, End: 120},  // outlives the parent: clipped at 100
		{ID: 5, Parent: 3, Start: 25, End: 35},   // grandchild: only 3 pays for it
		{ID: 6, Parent: 1, Start: -20, End: 5},   // started early: clipped at 0
		{ID: 7, Parent: 99, Start: 40, End: 45},  // parent not recorded: ignored
		{ID: 8, Parent: 1, Start: 60, End: 60},   // empty
		{ID: 9, Parent: 2, Start: 10, End: 30},   // covers 2 entirely
		{ID: 10, Parent: 1, Start: 22, End: 28},  // inside the overlap of 2 and 3
		{ID: 11, Parent: 4, Start: 95, End: 110}, // child of the clipped span
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]int64{
		1: 100 - (5 + 40 + 10), // [−20,5]→5, [10,50]→40, [90,100]→10
		2: 0, 3: 20, 4: 15, 5: 10, 9: 20, 11: 15,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestPlanDependsOnlyOnSeed(t *testing.T) {
	for _, w := range workloads() {
		a, err := w.planHash(1, 500)
		if err != nil {
			t.Fatal(err)
		}
		again, _ := w.planHash(1, 500)
		other, _ := w.planHash(2, 500)
		if a != again {
			t.Errorf("%s: seed 1 hashed to %x and then %x", w.Name, a, again)
		}
		// write_pipeline's plan is its running counter; the seed shows in
		// the content of what it writes instead.
		if a == other && w.Name != "write_pipeline" {
			t.Errorf("%s: seeds 1 and 2 plan the same operations (%x)", w.Name, a)
		}
	}
}

func TestFillContent(t *testing.T) {
	a, b := make([]byte, 1003), make([]byte, 1003)
	fillContent(a, 1, "/x/f1")
	fillContent(b, 1, "/x/f1")
	if string(a) != string(b) {
		t.Fatal("same (seed, path) gave different bytes")
	}
	fillContent(b, 2, "/x/f1")
	if string(a) == string(b) {
		t.Error("another seed gave the same bytes")
	}
	fillContent(b, 1, "/x/f2")
	if string(a) == string(b) {
		t.Error("another path gave the same bytes")
	}
	if a[1000] == 0 && a[1001] == 0 && a[1002] == 0 {
		t.Error("the tail past the last whole word was left unfilled")
	}
}

func TestSpreadMatchesDriver(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 2, 10, 9, 8, 4, 5, 6, 7}
	if got := spreadFrac(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadFrac = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name         string
		base, change []float64
		better       string
		want         string
	}{
		{"unchanged", steady, steady, "lower", "ok"},
		{"slower latency", steady, []float64{120, 121, 119, 120}, "lower", "regressed"},
		{"faster latency", steady, []float64{80, 81, 79, 80}, "lower", "ok"},
		{"lower throughput", steady, []float64{80, 81, 79, 80}, "higher", "regressed"},
		{"noisy base", []float64{60, 100, 140, 100}, []float64{130, 131, 129, 130}, "lower", "unresolved"},
	} {
		if got, _, _ := verdict(c.base, c.change, c.better, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program
// in step: same workloads, same metric names, units and directions, and
// the limits of the benchmark contract.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := loadBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	ws := workloads()
	if len(b.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(ws))
	}
	for i, w := range ws {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, b.Workloads[i].Name, w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the program %d", len(b.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		if !(got.Bound > 0 && got.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", got.Name, got.Bound)
		}
		hasSetup = hasSetup || (got.Name == "setup_s" && got.Unit == "s" && got.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(b.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program %d (limit 128)", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		got := b.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
}
