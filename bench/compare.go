package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read %s: %w", path, err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	return &b, nil
}

// loadRuns collects the untraced run reports under dir, by workload.
// Several runs of one workload (other seeds, kept in subdirectories or
// under other file names) become the samples its spread is taken over.
func loadRuns(dir string) (map[string][]metricSet, error) {
	runs := map[string][]metricSet{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".json") || strings.HasSuffix(path, ".spans.json") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rep report
		if json.Unmarshal(data, &rep) != nil || rep.Workload == "" || rep.Trace {
			return nil // not an untraced run report
		}
		runs[rep.Workload] = append(runs[rep.Workload], rep.Metrics)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: read runs under %s: %w", dir, err)
	}
	return runs, nil
}

// verdict applies one metric's bound to the two sides' samples: the
// change regressed when its median is worse than the base's by more
// than the bound; where the base's own runs spread wider than the
// bound, the row cannot be resolved either way.
func verdict(base, change []float64, better string, bound float64) (string, float64, float64) {
	mb, mc := median(base), median(change)
	worse := perUnit(mc-mb, mb)
	if better == "higher" {
		worse = -worse
	}
	spread := max(spreadFrac(base), spreadFrac(change))
	switch {
	case spread > bound:
		return "unresolved", worse, spread
	case worse > bound:
		return "regressed", worse, spread
	}
	return "ok", worse, spread
}

// compareDirs prints one row per workload and end-to-end metric and
// reports whether any row regressed.
func compareDirs(out io.Writer, benchmarkPath, baseDir, changeDir string) (bool, error) {
	b, err := loadBenchmarkFile(benchmarkPath)
	if err != nil {
		return false, err
	}
	base, err := loadRuns(baseDir)
	if err != nil {
		return false, err
	}
	change, err := loadRuns(changeDir)
	if err != nil {
		return false, err
	}
	regressed := false
	fmt.Fprintf(out, "%-20s %-20s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "base", "change", "worse", "spread", "bound", "verdict")
	for _, w := range b.Workloads {
		if len(base[w.Name]) == 0 || len(change[w.Name]) == 0 {
			fmt.Fprintf(out, "%-20s no runs on both sides\n", w.Name)
			continue
		}
		for _, def := range b.EndToEnd {
			column := func(runs []metricSet) []float64 {
				var xs []float64
				for _, r := range runs {
					if v, ok := r[def.Name]; ok {
						xs = append(xs, v.Value)
					}
				}
				return xs
			}
			xb, xc := column(base[w.Name]), column(change[w.Name])
			v, worse, spread := verdict(xb, xc, def.Better, def.Bound)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(out, "%-20s %-20s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s (n=%d/%d)\n",
				w.Name, def.Name, median(xb), median(xc), worse*100, spread*100, def.Bound*100, v, len(xb), len(xc))
		}
	}
	return regressed, nil
}
