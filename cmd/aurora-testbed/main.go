// Command aurora-testbed runs the paper's testbed experiment (Figure 6,
// Section VI.B) on the mini distributed file system: a real
// namenode/datanode cluster on loopback serves a SWIM-like workload
// under default HDFS, Scarlett and Aurora, and the three panels are
// printed as text.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"aurora/internal/experiments"
	"aurora/internal/faultinject"
	"aurora/internal/metrics"
	"aurora/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aurora-testbed:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aurora-testbed", flag.ContinueOnError)
	var (
		seed      = fs.Uint64("seed", 42, "workload seed")
		nodes     = fs.Int("nodes", 10, "datanodes (paper: 10)")
		files     = fs.Int("files", 24, "files in the dataset")
		jobs      = fs.Int("jobs", 400, "jobs to replay")
		epsilon   = fs.Float64("epsilon", 0.8, "Aurora epsilon (paper: 0.8)")
		shards    = fs.Int("shards", 1, "hash shards of each namenode optimizer period, run concurrently (1 = unsharded)")
		faultSpec = fs.String("fault-schedule", "", `fault schedule in replay time (one virtual second per tick): "random" for a seeded crash/slow mix, or an explicit spec like "crash:2@100s;recover:2@400s" (see internal/faultinject)`)
		faultSeed = fs.Uint64("fault-seed", 1, `seed for -fault-schedule=random`)
		telemAddr = fs.String("telemetry-addr", "", "serve /metrics and pprof on this address for the duration of the run (empty = off, port 0 = pick a free port)")
		linger    = fs.Duration("telemetry-linger", 0, "keep the telemetry endpoint up this long after the run finishes (so one-shot scrapers can read final metrics)")
		predictor = fs.String("predictor", "", "namenode popularity forecaster: ewma | seasonal (empty = reactive window counts)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *telemAddr != "" {
		ts, err := telemetry.Start(*telemAddr, metrics.Default)
		if err != nil {
			return err
		}
		defer ts.Close()
		// The resolved address line is parsed by scripts/telemetry_smoke.sh;
		// keep the format stable.
		fmt.Printf("telemetry listening on %s\n", ts.Addr())
	}
	setup := experiments.DefaultTestbedSetup(*seed)
	setup.Nodes = *nodes
	setup.Files = *files
	setup.Jobs = *jobs
	setup.Epsilon = *epsilon
	setup.Shards = *shards
	setup.Predictor = *predictor
	if *faultSpec != "" {
		sch, err := buildFaultSchedule(*faultSpec, *faultSeed, *nodes)
		if err != nil {
			return err
		}
		setup.FaultSchedule = sch
		fmt.Println("fault schedule (same per system, offsets in replay time):")
		for _, line := range sch.Log() {
			fmt.Println(" ", line)
		}
		fmt.Println()
	}

	start := time.Now()
	res, err := experiments.Fig6(setup)
	if err != nil {
		return err
	}
	if err := res.Render(os.Stdout); err != nil {
		return err
	}
	if setup.FaultSchedule != nil {
		fmt.Println("\nfault/retry counters:")
		fmt.Print(metrics.Default.String())
	}
	fmt.Printf("\n(completed in %v)\n", time.Since(start).Round(time.Millisecond))
	if *telemAddr != "" && *linger > 0 {
		// metrics.Default is process-global, so the final gauges and
		// histograms stay scrapeable after the cluster shuts down.
		fmt.Printf("telemetry lingering for %v\n", *linger)
		time.Sleep(*linger)
	}
	return nil
}

// buildFaultSchedule resolves the -fault-schedule flag: "random" draws a
// seeded mix of crash-recover cycles and latency spikes sized to the
// cluster; anything else parses as an explicit event spec. Offsets are
// replay time: the random schedule's last event lands at +600s, before
// the last job arrives at the default -jobs 400 (~1100s), and each
// crash window spans the reconfiguration epoch at +300s.
func buildFaultSchedule(spec string, seed uint64, nodes int) (faultinject.Schedule, error) {
	if spec != "random" {
		return faultinject.ParseSchedule(spec)
	}
	// Keep concurrent crash victims below the replication factor so a
	// random schedule can never make a 3x-replicated block unreachable
	// for longer than a recovery.
	crashes := nodes / 3
	if crashes < 1 {
		crashes = 1
	}
	if crashes > 2 {
		crashes = 2
	}
	return faultinject.RandomSchedule(seed, faultinject.ScheduleConfig{
		Nodes:          nodes,
		Crashes:        crashes,
		Slows:          2,
		HeartbeatDrops: 1,
		Start:          100 * time.Second,
		Spacing:        100 * time.Second,
		Downtime:       400 * time.Second,
		SlowDur:        200 * time.Second,
		DropDur:        200 * time.Second,
	})
}
