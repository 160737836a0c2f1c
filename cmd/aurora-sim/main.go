// Command aurora-sim runs the paper's trace-driven simulation
// experiments (Figures 3-5 of Section VI.A) and prints each figure's
// three panels as a table.
//
// Usage:
//
//	aurora-sim -experiment fig3            # Case 1: BP-Node, HDFS vs Aurora
//	aurora-sim -experiment fig4            # Case 2: BP-Rack
//	aurora-sim -experiment fig5            # Case 3: BP-Replicate vs Scarlett
//	aurora-sim -experiment all -scale paper -seed 7
//	aurora-sim -experiment scenarios -scenarios diurnal,flashcrowd -predictors reactive,ewma,seasonal
//
// -scale default is a laptop-sized rendition of the paper's setup;
// -scale paper uses the full 845-machine / 13-rack configuration (slow).
//
// -experiment scenarios runs the predictor-vs-reactive matrix over the
// named workload scenarios (internal/trace); -predictor selects a single
// forecaster for the figure experiments instead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"aurora/internal/experiments"
	"aurora/internal/metrics"
	"aurora/internal/telemetry"
	"aurora/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "aurora-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("aurora-sim", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "fig3 | fig4 | fig5 | all")
		scale      = fs.String("scale", "default", "default | paper")
		seed       = fs.Uint64("seed", 42, "deterministic workload seed")
		hours      = fs.Int("hours", 0, "override simulated hours (0 = scale default)")
		files      = fs.Int("files", 0, "override file count (0 = scale default)")
		jobsPerHr  = fs.Float64("jobs-per-hour", 0, "override job arrival rate (0 = scale default)")
		shards     = fs.Int("shards", 1, "partition each Aurora epoch's optimization into this many hash shards, run concurrently (1 = unsharded)")
		predictor  = fs.String("predictor", "", "popularity forecaster for the figure experiments: ewma | seasonal (empty = reactive window counts)")
		scenarios  = fs.String("scenarios", "", "comma-separated scenario list for -experiment scenarios (empty = all: "+strings.Join(trace.ScenarioNames(), ",")+")")
		predictors = fs.String("predictors", "", "comma-separated predictor list for -experiment scenarios, may include \"reactive\" (empty = reactive,ewma,seasonal)")
		periodHrs  = fs.Int("period-hours", 0, "scenario repeat period and seasonal season length in hours (0 = default)")
		metricsOut = fs.String("metrics-out", "", "write the scenario matrix's telemetry (aurora_predictor_*) to this file in Prometheus text format")
		timing     = fs.Bool("timing", true, "print wall-clock timing lines (disable for byte-identical output across runs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var setup experiments.Setup
	switch *scale {
	case "default":
		setup = experiments.DefaultSetup(*seed)
	case "paper":
		setup = experiments.PaperSetup(*seed)
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	if *hours > 0 {
		setup.Hours = *hours
	}
	if *files > 0 {
		setup.Files = *files
	}
	if *jobsPerHr > 0 {
		setup.JobsPerHour = *jobsPerHr
	}
	setup.Shards = *shards
	setup.Predictor = *predictor

	if strings.ToLower(*experiment) == "scenarios" {
		return runScenarios(out, scenarioOpts{
			seed:       *seed,
			hours:      *hours,
			files:      *files,
			jobsPerHr:  *jobsPerHr,
			periodHrs:  *periodHrs,
			scenarios:  *scenarios,
			predictors: *predictors,
			metricsOut: *metricsOut,
		})
	}

	type figFn struct {
		name string
		fn   func(experiments.Setup) (*experiments.Figure, error)
	}
	var figs []figFn
	switch strings.ToLower(*experiment) {
	case "fig3":
		figs = []figFn{{"fig3", experiments.Fig3}}
	case "fig4":
		figs = []figFn{{"fig4", experiments.Fig4}}
	case "fig5":
		figs = []figFn{{"fig5", experiments.Fig5}}
	case "all":
		figs = []figFn{{"fig3", experiments.Fig3}, {"fig4", experiments.Fig4}, {"fig5", experiments.Fig5}}
	default:
		return fmt.Errorf("unknown experiment %q (fig3|fig4|fig5|all|scenarios)", *experiment)
	}

	for _, f := range figs {
		start := time.Now()
		fig, err := f.fn(setup)
		if err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		if err := fig.Render(out); err != nil {
			return err
		}
		if *timing {
			fmt.Fprintf(out, "(%s in %v)\n", f.name, time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintln(out)
		if f.name == "fig5" {
			sys, pct, err := fig.Headline()
			if err == nil {
				fmt.Fprintf(out, "headline: %s reduces remote tasks by %.1f%% vs %s (paper reports up to 26.9%%)\n\n",
					sys, pct, fig.Rows[0].System)
			}
		}
	}
	return nil
}

// scenarioOpts carries the -experiment scenarios flag values.
type scenarioOpts struct {
	seed                  uint64
	hours, files          int
	jobsPerHr             float64
	periodHrs             int
	scenarios, predictors string
	metricsOut            string
}

// runScenarios executes the predictor-vs-reactive scenario matrix. Its
// output carries no wall-clock content, so two runs with the same flags
// are byte-identical — scripts/scenario_smoke.sh depends on that.
func runScenarios(out io.Writer, o scenarioOpts) error {
	setup := experiments.DefaultScenarioSetup(o.seed)
	if o.hours > 0 {
		setup.Hours = o.hours
	}
	if o.files > 0 {
		setup.Files = o.files
	}
	if o.jobsPerHr > 0 {
		setup.JobsPerHour = o.jobsPerHr
	}
	if o.periodHrs > 0 {
		setup.PeriodHours = o.periodHrs
	}
	if o.scenarios != "" {
		setup.Scenarios = splitList(o.scenarios)
	}
	if o.predictors != "" {
		setup.Predictors = splitList(o.predictors)
	}
	reg := metrics.NewRegistry()
	setup.Registry = reg
	m, err := experiments.RunScenarioMatrix(setup)
	if err != nil {
		return err
	}
	if err := m.Render(out); err != nil {
		return err
	}
	if o.metricsOut != "" {
		f, err := os.Create(o.metricsOut)
		if err != nil {
			return err
		}
		if err := telemetry.WriteProm(f, reg.Snapshot()); err != nil {
			//lint:ignore errcheck the write error is what matters here
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "metrics written to %s\n", o.metricsOut)
	}
	return nil
}

// splitList parses a comma-separated flag into trimmed non-empty items.
func splitList(s string) []string {
	var items []string
	for _, it := range strings.Split(s, ",") {
		if it = strings.TrimSpace(it); it != "" {
			items = append(items, it)
		}
	}
	return items
}
