// Command aurora-dfs runs and operates the mini distributed file system
// as real processes, HDFS-style:
//
//	# metadata service (prints its address)
//	aurora-dfs namenode -nodes 4 -racks 2 -listen 127.0.0.1:9000
//
//	# storage nodes (one per terminal / machine)
//	aurora-dfs datanode -namenode 127.0.0.1:9000 -rack 0 -dir /tmp/dn0
//
//	# client operations
//	aurora-dfs put     -namenode 127.0.0.1:9000 -path /logs/a local.bin
//	aurora-dfs get     -namenode 127.0.0.1:9000 -path /logs/a out.bin
//	aurora-dfs ls      -namenode 127.0.0.1:9000
//	aurora-dfs stat    -namenode 127.0.0.1:9000 -path /logs/a
//	aurora-dfs setrep  -namenode 127.0.0.1:9000 -path /logs/a -k 5
//	aurora-dfs rm      -namenode 127.0.0.1:9000 -path /logs/a
//	aurora-dfs info    -namenode 127.0.0.1:9000
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"
	"time"

	"aurora"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "namenode":
		err = runNameNode(args)
	case "datanode":
		err = runDataNode(args)
	case "put":
		err = runPut(args)
	case "get":
		err = runGet(args)
	case "ls":
		err = runLs(args)
	case "stat":
		err = runStat(args)
	case "setrep":
		err = runSetRep(args)
	case "rm":
		err = runRm(args)
	case "info":
		err = runInfo(args)
	case "fsck":
		err = runFsck(args)
	case "decommission":
		err = runDecommission(args)
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "aurora-dfs: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aurora-dfs:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: aurora-dfs <command> [flags]

server commands:
  namenode   run the metadata service
  datanode   run a storage node

client commands (all take -namenode <addr>):
  put        upload a local file        (-path <dfs path> <local file>)
  get        download a file           (-path <dfs path> <local file>)
  ls         list files
  stat       show one file's metadata  (-path)
  setrep     change replication factor (-path -k)
  rm         delete a file             (-path)
  info       show datanodes and block counts
  fsck       check replica health and reconcile backlog
  decommission  gracefully drain a datanode (-node <id>)`)
}

func runNameNode(args []string) error {
	fs := flag.NewFlagSet("namenode", flag.ContinueOnError)
	var (
		nodes   = fs.Int("nodes", 3, "datanodes expected before the cluster serves writes")
		racks   = fs.Int("racks", 2, "racks")
		repl    = fs.Int("replication", 3, "default replication factor")
		block   = fs.Int("block-size", 1<<20, "block size in bytes")
		listen  = fs.String("listen", "127.0.0.1:0", "control listen address")
		placer  = fs.String("placer", "aurora", "initial placement policy: aurora | hdfs")
		optim   = fs.Duration("optimize-every", 0, "run the Aurora optimizer on this period (0 = off)")
		epsilon = fs.Float64("epsilon", 0.1, "optimizer epsilon")
		extra   = fs.Int("budget-extra", 0, "replica budget beyond the dataset minimum (0 disables dynamic replication)")
		shards  = fs.Int("shards", 1, "partition each optimizer period into this many hash shards, run concurrently and replayed onto the one block map (1 = unpartitioned period)")
		fsimage = fs.String("fsimage", "", "metadata checkpoint path (load on start, save periodically and on shutdown)")
		telem   = fs.String("telemetry-addr", "", "serve /metrics and pprof on this address (empty = off)")
		pred    = fs.String("predictor", "", "popularity forecaster feeding the optimizer: ewma | seasonal (empty = reactive window counts)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *telem != "" {
		ts, err := aurora.StartTelemetry(*telem)
		if err != nil {
			return err
		}
		defer ts.Close()
		fmt.Printf("telemetry listening on %s\n", ts.Addr())
	}
	cfg := aurora.NameNodeConfig{
		ExpectedNodes:      *nodes,
		Racks:              *racks,
		DefaultReplication: *repl,
		BlockSize:          *block,
		ListenAddr:         *listen,
		FsImagePath:        *fsimage,
		Shards:             *shards,
		Predictor:          *pred,
	}
	if *placer == "aurora" {
		cfg.Placer = aurora.AuroraPlacer{}
	}
	nn, err := aurora.StartNameNode(cfg)
	if err != nil {
		return err
	}
	defer nn.Close()
	fmt.Printf("namenode listening on %s (waiting for %d datanodes)\n", nn.Addr(), *nodes)

	var ctl *aurora.Controller
	if *optim > 0 {
		ctl, err = aurora.NewController(budgetTarget{nn: nn, extra: *extra}, aurora.ControllerConfig{
			Period:  *optim,
			Options: aurora.OptimizerOptions{Epsilon: *epsilon, RackAware: true},
			OnPeriod: func(res aurora.OptimizeResult, err error) {
				if err != nil {
					fmt.Printf("optimize: %v\n", err)
					return
				}
				fmt.Printf("optimize: %d replications, %d migrations, max load %.1f\n",
					res.Replications, res.Search.Movements, res.Search.FinalCost)
			},
		})
		if err != nil {
			return err
		}
		defer ctl.Close()
		fmt.Printf("aurora optimizer running every %v (epsilon %.2f)\n", *optim, *epsilon)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}

// budgetTarget resolves the replication budget against the live dataset
// size each period: budget = current minimum replicas + extra.
type budgetTarget struct {
	nn    *aurora.NameNode
	extra int
}

func (t budgetTarget) OptimizeNow(opts aurora.OptimizerOptions) (aurora.OptimizeResult, error) {
	if t.extra > 0 {
		p, err := t.nn.PlacementClone()
		if err != nil {
			return aurora.OptimizeResult{}, err
		}
		minTotal := 0
		for _, id := range p.Blocks() {
			spec, err := p.Spec(id)
			if err != nil {
				return aurora.OptimizeResult{}, err
			}
			minTotal += spec.MinReplicas
		}
		opts.ReplicationBudget = minTotal + t.extra
	} else {
		opts.ReplicationBudget = 0
	}
	return t.nn.OptimizeNow(opts)
}

func runDataNode(args []string) error {
	fs := flag.NewFlagSet("datanode", flag.ContinueOnError)
	var (
		nnAddr   = fs.String("namenode", "", "namenode control address (required)")
		rack     = fs.Int("rack", 0, "rack this node lives in")
		capacity = fs.Int("capacity", 4096, "max blocks stored")
		dir      = fs.String("dir", "", "data directory (empty = in-memory)")
		listen   = fs.String("listen", "127.0.0.1:0", "data listen address")
		telem    = fs.String("telemetry-addr", "", "serve /metrics and pprof on this address (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nnAddr == "" {
		return fmt.Errorf("-namenode is required")
	}
	if *telem != "" {
		ts, err := aurora.StartTelemetry(*telem)
		if err != nil {
			return err
		}
		defer ts.Close()
		fmt.Printf("telemetry listening on %s\n", ts.Addr())
	}
	dn, err := aurora.StartDataNode(aurora.DataNodeConfig{
		NameNodeAddr:   *nnAddr,
		Rack:           *rack,
		CapacityBlocks: *capacity,
		ListenAddr:     *listen,
		DataDir:        *dir,
	})
	if err != nil {
		return err
	}
	defer dn.Close()
	fmt.Printf("datanode %d serving on %s (rack %d)\n", dn.ID(), dn.Addr(), *rack)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return nil
}

// clientFlags parses the flags shared by client subcommands and returns
// the client plus remaining args.
func clientFlags(name string, args []string, extra func(*flag.FlagSet)) (*aurora.FSClient, *flag.FlagSet, error) {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	nnAddr := fs.String("namenode", "", "namenode control address (required)")
	blockSize := fs.Int("block-size", 1<<20, "client block split size")
	if extra != nil {
		extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if *nnAddr == "" {
		return nil, nil, fmt.Errorf("-namenode is required")
	}
	c := aurora.NewFSClient(*nnAddr,
		aurora.WithBlockSize(*blockSize),
		aurora.WithClientTimeout(30*time.Second))
	return c, fs, nil
}

// withPath registers the shared -path flag on a subcommand's flag set
// and returns the destination, so each subcommand owns its own copy
// instead of funneling through package-level state.
func withPath(fs *flag.FlagSet) *string { return fs.String("path", "", "DFS path") }

func runPut(args []string) error {
	var path *string
	var k *int
	c, fs, err := clientFlags("put", args, func(fs *flag.FlagSet) {
		path = withPath(fs)
		k = fs.Int("k", 0, "replication factor (0 = cluster default)")
	})
	if err != nil {
		return err
	}
	if *path == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: put -namenode <addr> -path </dfs/path> <local file>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := c.Create(*path, data, *k); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d bytes\n", *path, len(data))
	return nil
}

func runGet(args []string) error {
	var path *string
	c, fs, err := clientFlags("get", args, func(fs *flag.FlagSet) { path = withPath(fs) })
	if err != nil {
		return err
	}
	if *path == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: get -namenode <addr> -path </dfs/path> <local file>")
	}
	data, err := c.Read(*path)
	if err != nil {
		return err
	}
	if err := os.WriteFile(fs.Arg(0), data, 0o644); err != nil {
		return err
	}
	fmt.Printf("read %s: %d bytes -> %s\n", *path, len(data), fs.Arg(0))
	return nil
}

func runLs(args []string) error {
	c, _, err := clientFlags("ls", args, nil)
	if err != nil {
		return err
	}
	files, err := c.List()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "path\tbytes\tblocks\treplication\tcomplete")
	for _, f := range files {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%v\n", f.Path, f.Length, f.Blocks, f.Replication, f.Complete)
	}
	return tw.Flush()
}

func runStat(args []string) error {
	var path *string
	c, _, err := clientFlags("stat", args, func(fs *flag.FlagSet) { path = withPath(fs) })
	if err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-path is required")
	}
	f, err := c.Stat(*path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d bytes in %d blocks, replication %d, complete %v\n",
		f.Path, f.Length, f.Blocks, f.Replication, f.Complete)
	locs, err := c.Locations(*path)
	if err != nil {
		return err
	}
	for _, l := range locs {
		fmt.Printf("  block %d (%d bytes): %v\n", l.Block, l.Length, l.Addresses)
	}
	return nil
}

func runSetRep(args []string) error {
	var path *string
	var k *int
	c, _, err := clientFlags("setrep", args, func(fs *flag.FlagSet) {
		path = withPath(fs)
		k = fs.Int("k", 3, "new replication factor")
	})
	if err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-path is required")
	}
	if err := c.SetReplication(*path, *k); err != nil {
		return err
	}
	fmt.Printf("replication of %s set to %d\n", *path, *k)
	return nil
}

func runRm(args []string) error {
	var path *string
	c, _, err := clientFlags("rm", args, func(fs *flag.FlagSet) { path = withPath(fs) })
	if err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("-path is required")
	}
	if err := c.Delete(*path); err != nil {
		return err
	}
	fmt.Printf("deleted %s\n", *path)
	return nil
}

func runFsck(args []string) error {
	c, _, err := clientFlags("fsck", args, nil)
	if err != nil {
		return err
	}
	h, err := c.Fsck()
	if err != nil {
		return err
	}
	fmt.Printf("files:                %d\n", h.Files)
	fmt.Printf("blocks:               %d\n", h.Blocks)
	fmt.Printf("replicas desired:     %d\n", h.DesiredReplicas)
	fmt.Printf("replicas confirmed:   %d\n", h.ConfirmedReplicas)
	fmt.Printf("under-replicated:     %d\n", h.UnderReplicatedBlocks)
	fmt.Printf("under rack spread:    %d\n", h.UnderSpreadBlocks)
	fmt.Printf("pending commands:     %d\n", h.PendingCommands)
	fmt.Printf("inflight transfers:   %d\n", h.InflightTransfers)
	fmt.Printf("dead datanodes:       %d\n", h.DeadNodes)
	fmt.Printf("tombstoned blocks:    %d (no file, still held)\n", h.TombstonedBlocks)
	if h.Healthy {
		fmt.Println("status: HEALTHY")
	} else {
		fmt.Println("status: DEGRADED")
	}
	return nil
}

func runDecommission(args []string) error {
	var node *int
	c, _, err := clientFlags("decommission", args, func(fs *flag.FlagSet) {
		node = fs.Int("node", -1, "datanode ID to drain")
	})
	if err != nil {
		return err
	}
	if *node < 0 {
		return fmt.Errorf("-node is required")
	}
	if err := c.Decommission(aurora.DFSNodeID(*node)); err != nil {
		return err
	}
	fmt.Printf("draining node %d; watch `aurora-dfs info` until it reports decommissioned\n", *node)
	return nil
}

func runInfo(args []string) error {
	c, _, err := clientFlags("info", args, nil)
	if err != nil {
		return err
	}
	nodes, err := c.ClusterInfo()
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "node\track\taddr\tblocks\tcapacity\tstate")
	for _, n := range nodes {
		state := "alive"
		switch {
		case n.Decommissioned:
			state = "decommissioned"
		case n.Draining:
			state = "draining"
		case !n.Alive:
			state = "dead"
		}
		fmt.Fprintf(tw, "%d\t%d\t%s\t%d\t%d\t%s\n", n.ID, n.Rack, n.Addr, n.Blocks, n.Capacity, state)
	}
	return tw.Flush()
}
