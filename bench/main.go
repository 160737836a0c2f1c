// Command bench is aurora-bench: the end-to-end benchmark of the
// mini-DFS and its optimizer. One invocation boots an in-process
// loopback cluster, generates one workload's load from a seed, checks
// every result, and prints either the end-to-end metrics (-trace 0) or,
// from its own wrappers around each layer, the per-layer ones
// (-trace 1). BENCHMARK.json declares the metrics and their bounds;
// README.md in this directory says what each is for.
//
//	go run ./bench -workload read_skewed -seed 1 -seconds 16 -trace 0
//	go run ./bench -compare before/ after/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const (
	outDir          = "bench/out"
	warmup          = 2 * time.Second
	setupReps       = 5
	epiloguePeriods = 9
)

func main() {
	workloadName := flag.String("workload", "", "workload to run: read_skewed, write_pipeline, meta_small or optimize_foreground")
	seed := flag.Uint64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 16, "length of the timed phase")
	traced := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	compare := flag.Bool("compare", false, "compare two directories of run reports against the bounds in BENCHMARK.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("bench: -compare takes two directories, got %d arguments", flag.NArg()))
		}
		regressed, err := compareDirs(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	w, err := workloadByName(*workloadName)
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fatal(fmt.Errorf("bench: need -seconds > 0 and -trace 0 or 1"))
	}
	cfg := runConfig{
		W: w, Seed: *seed, Trace: *traced == 1, OutDir: outDir,
		Seconds: time.Duration(*seconds * float64(time.Second)), Warmup: warmup,
		SetupReps: setupReps, EpiloguePeriods: epiloguePeriods,
	}
	if cfg.Trace {
		// setup_s is an end-to-end metric; a traced run needs one cluster.
		cfg.SetupReps = 1
	}
	rep, err := run(cfg)
	if err != nil {
		fatal(err)
	}
	if err := emit(rep, cfg); err != nil {
		fatal(err)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

// reportPath is where a run's full report goes; traced and untraced
// runs of one workload do not overwrite each other.
func reportPath(cfg runConfig) string {
	if cfg.Trace {
		return filepath.Join(cfg.OutDir, cfg.W.Name+".trace.json")
	}
	return filepath.Join(cfg.OutDir, cfg.W.Name+".json")
}

func spanPath(cfg runConfig) string {
	return filepath.Join(cfg.OutDir, cfg.W.Name+".spans.json")
}

// result is the last line of standard output, the part of the report
// the benchmark contract reads.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// emit prints every metric by name with its unit, stores the full
// report, and ends with the one-line result.
func emit(rep *report, cfg runConfig) error {
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	declared := metricSet{}
	fmt.Printf("# %s seed=%d seconds=%g trace=%v samples=%d plan=%s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Samples, rep.PlanHash)
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("bench: metric %s was not measured", d.Name)
		}
		declared[d.Name] = v
		fmt.Printf("%-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
	}
	for _, v := range rep.Violations {
		fmt.Printf("# violation: %s\n", v)
	}
	for _, v := range rep.Warnings {
		fmt.Printf("# warning: %s\n", v)
	}
	if rep.FirstError != "" {
		fmt.Printf("# first failed operation: %s\n", rep.FirstError)
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode report: %w", err)
	}
	if err := os.WriteFile(reportPath(cfg), append(full, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write report: %w", err)
	}
	line, err := json.Marshal(result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: declared})
	if err != nil {
		return fmt.Errorf("bench: encode result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}
