package sim

import (
	"errors"
	"reflect"
	"testing"

	"aurora/internal/popularity"
	"aurora/internal/trace"
)

func scenarioTrace(t *testing.T, name string, seed uint64) *trace.Trace {
	t.Helper()
	tr, err := trace.GenerateScenario(name, trace.ScenarioConfig{
		Seed: seed, Files: 40, Hours: 12, JobsPerHour: 200, PeriodHours: 4,
	})
	if err != nil {
		t.Fatalf("GenerateScenario(%s): %v", name, err)
	}
	return tr
}

// Every forecaster (plus the reactive baseline) must drive a
// full run to completion with identical task totals — forecasting only
// moves replicas, it never gains or loses work.
func TestRunWithEachPredictor(t *testing.T) {
	cl := smallCluster(t)
	tr := scenarioTrace(t, trace.ScenarioDiurnal, 3)
	budget := tr.NumBlocks()*3 + 60
	base, err := Run(Config{Cluster: cl, Trace: tr, Policy: auroraPolicy(budget)})
	if err != nil {
		t.Fatalf("Run reactive: %v", err)
	}
	if base.Predictor != "reactive" {
		t.Errorf("Predictor = %q, want reactive", base.Predictor)
	}
	for _, name := range []string{popularity.NameEWMA, popularity.NameSeasonal} {
		res, err := Run(Config{
			Cluster: cl, Trace: tr, Policy: auroraPolicy(budget),
			Predictor: name, PredictorSeason: 4,
		})
		if err != nil {
			t.Fatalf("Run %s: %v", name, err)
		}
		if res.Predictor != name {
			t.Errorf("Predictor = %q, want %q", res.Predictor, name)
		}
		if res.TotalTasks() != base.TotalTasks() {
			t.Errorf("%s: task count %d != reactive %d", name, res.TotalTasks(), base.TotalTasks())
		}
		wae, topK, periods := res.MeanPredError()
		if periods == 0 {
			t.Errorf("%s: no scored prediction periods", name)
		}
		if wae <= 0 {
			t.Errorf("%s: mean WAE = %v, want > 0 on a shifting workload", name, wae)
		}
		if topK <= 0 || topK > 1 {
			t.Errorf("%s: mean top-K overlap = %v, want (0,1]", name, topK)
		}
	}
}

func TestRunRejectsUnknownPredictor(t *testing.T) {
	cl := smallCluster(t)
	tr := smallTrace(t, 9, 20, 3, 60)
	for _, name := range []string{"bogus", "ranker", "historical", "none", "off"} {
		if _, err := Run(Config{Cluster: cl, Trace: tr, Policy: auroraPolicy(tr.NumBlocks() * 3), Predictor: name}); err == nil {
			t.Errorf("predictor %q accepted", name)
		}
	}
	if _, err := Run(Config{Cluster: cl, Trace: tr, Policy: auroraPolicy(tr.NumBlocks() * 3), PredictorSeason: -1}); !errors.Is(err, ErrBadSimConfig) {
		t.Errorf("PredictorSeason=-1 err = %v, want ErrBadSimConfig", err)
	}
}

// RealizedSOL must be recorded on every reconfigured epoch, and the
// whole run must be replayable: same config, same epoch series.
func TestRealizedSOLSeriesDeterministic(t *testing.T) {
	cl := smallCluster(t)
	tr := scenarioTrace(t, trace.ScenarioFlashCrowd, 5)
	budget := tr.NumBlocks()*3 + 60
	run := func() *Result {
		res, err := Run(Config{
			Cluster: cl, Trace: tr, Policy: auroraPolicy(budget),
			Predictor: popularity.NameSeasonal, PredictorSeason: 4,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Epochs, b.Epochs) {
		t.Fatal("epoch series diverged between identical runs")
	}
	var reconfigured int
	for _, e := range a.Epochs {
		if e.Reconfigured {
			reconfigured++
			if e.RealizedSOL <= 0 {
				t.Errorf("epoch %d: RealizedSOL = %v, want > 0", e.Epoch, e.RealizedSOL)
			}
		}
	}
	if reconfigured < 10 {
		t.Errorf("reconfigured epochs = %d, want >= 10 over a 12h trace", reconfigured)
	}
	mean, max := a.MeanRealizedSOL()
	if mean <= 0 || max < mean {
		t.Errorf("MeanRealizedSOL = (%v, %v), want 0 < mean <= max", mean, max)
	}
}
