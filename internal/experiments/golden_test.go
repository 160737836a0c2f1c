package experiments

import (
	"os"
	"strings"
	"testing"

	"aurora/internal/popularity"
)

// goldenPath pins the simulator's rendered output byte for byte: the
// Fig 3/4/5 tables and one scenario-matrix cell at a reduced
// DefaultSetup size. Determinism tests only compare a run with itself;
// this one compares it with the recorded output, so a refactor of the
// replay or a policy that moves any number fails here.
const goldenPath = "testdata/sim_golden.txt"

// renderGolden runs the pinned campaign and returns its rendering.
func renderGolden(t *testing.T) string {
	t.Helper()
	s := DefaultSetup(42)
	s.Files = 100
	s.Hours = 3
	s.JobsPerHour = 2600
	s.Epsilons = []float64{0.1, 0.8}
	s.BudgetExtraBlocks = 400
	var b strings.Builder
	for _, fig := range []func(Setup) (*Figure, error){Fig3, Fig4, Fig5} {
		f, err := fig(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Render(&b); err != nil {
			t.Fatal(err)
		}
		b.WriteString("\n")
	}
	sc := DefaultScenarioSetup(42)
	sc.Files = 60
	sc.Hours = 12
	sc.JobsPerHour = 600
	sc.Scenarios = []string{"flashcrowd"}
	sc.Predictors = []string{popularity.NameEWMA}
	m, err := RunScenarioMatrix(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSimulatorGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output diverges from %s at line %d:\n got  %q\n want %q\nfull output:\n%s", goldenPath, i+1, g, w, got)
		}
	}
}
