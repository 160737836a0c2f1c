package experiments

import (
	"testing"
)

// The sweep parallelism must be invisible in the output: the same setup
// with any worker count renders byte-identical figures, because every
// row runs an independent simulation into its own slot. Render covers
// every numeric field at full float formatting relevance plus row order.
func TestFigSweepParallelMatchesSerial(t *testing.T) {
	figs := []struct {
		name string
		run  func(Setup) (*Figure, error)
	}{
		{"Fig3", Fig3},
		{"Fig4", Fig4},
		{"Fig5", Fig5},
	}
	for _, f := range figs {
		t.Run(f.name, func(t *testing.T) {
			serial := tinySetup(33)
			serial.Workers = 1
			want, err := f.run(serial)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for _, workers := range []int{2, 0} {
				parallel := tinySetup(33)
				parallel.Workers = workers
				got, err := f.run(parallel)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got.String() != want.String() {
					t.Errorf("workers=%d output diverges from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
						workers, want, got)
				}
				// Beyond the rendering, the raw per-row numbers must be
				// bit-identical.
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("workers=%d: rows %d vs %d", workers, len(got.Rows), len(want.Rows))
				}
				for i := range want.Rows {
					g, w := got.Rows[i], want.Rows[i]
					g.LoadCDF, w.LoadCDF = nil, nil // compared via String above
					if g != w {
						t.Errorf("workers=%d row %d diverges:\nserial   %+v\nparallel %+v", workers, i, w, g)
					}
				}
			}
		})
	}
}
