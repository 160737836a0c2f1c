package namenode

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"aurora/internal/core"
	"aurora/internal/dfs/proto"
	"aurora/internal/metrics"
	"aurora/internal/telemetry"
)

// Regression for scrape-mutates-state: telemetry read paths
// (PopularitySnapshot, the reconcile loop's load export) must never
// advance or prune the usage monitor, no matter how often they run —
// the counts the optimizer consumes may not depend on scrape frequency.
func TestTelemetryScrapesNeverChangeMonitorState(t *testing.T) {
	nn := startNN(t, 1, 1)
	registerFake(t, nn, 0, "127.0.0.1:19001")
	now := nn.cfg.Clock().UnixNano()
	// Seed accesses, including one key already outside the window so a
	// pruning pass would visibly shrink Len.
	for b := core.BlockID(1); b <= 5; b++ {
		nn.monitor.RecordN(b, now, int64(b)*3)
	}
	stale := core.BlockID(99)
	nn.monitor.Record(stale, now-10*int64(nn.cfg.WindowBucket)*int64(nn.cfg.WindowBuckets))

	lenBefore := nn.monitor.Len()
	first := nn.PopularitySnapshot()
	if len(first) != 5 {
		t.Fatalf("snapshot = %v, want 5 live keys", first)
	}
	for i := 0; i < 200; i++ {
		if got := nn.PopularitySnapshot(); !reflect.DeepEqual(got, first) {
			t.Fatalf("scrape %d: snapshot drifted: %v vs %v", i, got, first)
		}
		nn.ReconcileOnce() // runs the telemetry export path
	}
	if got := nn.monitor.Len(); got != lenBefore {
		t.Fatalf("monitor Len changed %d -> %d under repeated scrapes", lenBefore, got)
	}
	// The consuming path still prunes: one period drops the expired key.
	if err := nn.WithPlacement(func(*core.Placement) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := nn.monitor.Len(); got != lenBefore-1 {
		t.Fatalf("Len after consuming refresh = %d, want %d (stale key pruned)", got, lenBefore-1)
	}
}

// forecastCluster is a 2-rack × 2-node namenode with fake datanodes on
// a test-owned clock, with no reconcile loop, holding files /f0../fN of
// one block each.
type forecastCluster struct {
	t      *testing.T
	nn     *NameNode
	blocks []core.BlockID // blocks[i] is /f<i>'s block
	now    time.Time      // guarded by nn.mu
}

func startForecastCluster(t *testing.T, shards int, predictor string, files int) *forecastCluster {
	t.Helper()
	fc := &forecastCluster{t: t, now: time.Unix(1_700_000_000, 0)}
	nn, err := Start(Config{
		ExpectedNodes:      4,
		Racks:              2,
		DefaultReplication: 2,
		DefaultMinRacks:    2,
		DeadTimeout:        24 * time.Hour,
		Seed:               1,
		Shards:             shards,
		Predictor:          predictor,
		Clock:              func() time.Time { return fc.now },
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = nn.Close() })
	fc.nn = nn
	for i, addr := range []string{"a:1", "b:1", "c:1", "d:1"} {
		registerFake(t, nn, i%2, addr)
	}
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/f%d", i)
		fc.call(&proto.Message{Type: proto.MsgCreateFile, Path: path})
		resp := fc.call(&proto.Message{Type: proto.MsgAddBlock, Path: path, Length: 1})
		fc.blocks = append(fc.blocks, core.BlockID(resp.Block))
	}
	return fc
}

func (fc *forecastCluster) call(m *proto.Message) *proto.Message {
	fc.t.Helper()
	resp, _, err := proto.Call(fc.nn.Addr(), m, nil, time.Second)
	if err != nil {
		fc.t.Fatalf("%s: %v", m.Type, err)
	}
	return resp
}

// period reads file i reads(i) times, then moves the clock one window
// bucket on, so every window mixes two periods' reads.
func (fc *forecastCluster) period(reads func(i int) int) {
	fc.t.Helper()
	for i := range fc.blocks {
		for r := 0; r < reads(i); r++ {
			fc.call(&proto.Message{Type: proto.MsgGetLocations, Path: fmt.Sprintf("/f%d", i)})
		}
	}
	fc.nn.mu.Lock()
	fc.now = fc.now.Add(fc.nn.cfg.WindowBucket)
	fc.nn.mu.Unlock()
}

// refresh runs one period that moves no replica and returns every
// block's popularity after it, in block order.
func (fc *forecastCluster) refresh() []float64 {
	fc.t.Helper()
	if err := fc.nn.WithPlacement(func(*core.Placement) error { return nil }); err != nil {
		fc.t.Fatalf("refresh: %v", err)
	}
	fc.nn.mu.Lock()
	defer fc.nn.mu.Unlock()
	pops := make([]float64, len(fc.blocks))
	for i, id := range fc.blocks {
		spec, err := fc.nn.placement.Spec(id)
		if err != nil {
			fc.t.Fatalf("Spec(%d): %v", id, err)
		}
		pops[i] = spec.Popularity
	}
	return pops
}

// A predictor-enabled namenode must feed its forecasts into the
// placement on refresh, and reject unknown predictor names at startup.
func TestNameNodePredictorWiring(t *testing.T) {
	if _, err := Start(Config{ExpectedNodes: 1, Predictor: "bogus"}); err == nil {
		t.Fatal("unknown predictor accepted")
	}
	fc := startForecastCluster(t, 2, "seasonal", 8)
	fc.period(func(int) int { return 3 })
	// A seasonal predictor's first forecast is the window it observed.
	for i, pop := range fc.refresh() {
		if pop != 3 {
			t.Errorf("block %d forecast popularity = %v, want 3", fc.blocks[i], pop)
		}
	}
}

// Shards split the block map and the optimizer, not the monitor or the
// forecaster: the same reads must give every block bit-identical
// popularity at any shard count: one forecaster per namenode, never one
// per shard fed only its shard's keys.
func TestForecastIndependentOfShardCount(t *testing.T) {
	for _, predictor := range []string{"ewma", "seasonal"} {
		one := startForecastCluster(t, 1, predictor, 24)
		four := startForecastCluster(t, 4, predictor, 24)
		for p := 0; p < 4; p++ {
			reads := func(i int) int { return (i*7+p*5)%6 + i%3 }
			one.period(reads)
			four.period(reads)
			a, b := one.refresh(), four.refresh()
			for i := range a {
				if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
					t.Errorf("%s, period %d: block %d popularity %v with 1 shard, %v with 4",
						predictor, p, one.blocks[i], a[i], b[i])
				}
			}
		}
	}
}

// The machine-load and hotspot gauges have one writer, the reconcile
// pass, and mean window loads. An optimizer period under a predictor
// places by forecast loads and must not overwrite them.
func TestOptimizeNowLeavesLoadGaugesToReconcile(t *testing.T) {
	fc := startForecastCluster(t, 1, "ewma", 6)
	fc.period(func(i int) int { return 1 + i })
	if _, err := fc.nn.OptimizeNow(core.OptimizerOptions{RackAware: true}); err != nil {
		t.Fatalf("OptimizeNow: %v", err)
	}
	fc.period(func(i int) int { return 6 - i }) // the EWMA forecast now trails the window
	fc.nn.ReconcileOnce()
	read := func() []float64 {
		reg := metrics.Default
		vals := []float64{reg.Gauge("aurora_machine_load_max").Value()}
		for m := 0; m < 4; m++ {
			vals = append(vals, reg.Gauge("aurora_machine_load", metrics.L("machine", strconv.Itoa(m))).Value())
		}
		for r := 0; r < telemetry.HotspotRanks; r++ {
			rank := metrics.L("rank", strconv.Itoa(r))
			vals = append(vals, reg.Gauge("aurora_hotspot_popularity", rank).Value(),
				reg.Gauge("aurora_hotspot_block", rank).Value())
		}
		return vals
	}
	reconciled := read()
	if _, err := fc.nn.OptimizeNow(core.OptimizerOptions{RackAware: true}); err != nil {
		t.Fatalf("OptimizeNow: %v", err)
	}
	if got := read(); !reflect.DeepEqual(got, reconciled) {
		t.Errorf("OptimizeNow rewrote the load/hotspot gauges:\n got %v\nwant %v (as reconcile wrote them)", got, reconciled)
	}
}
