package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"time"

	"aurora/internal/dfs/client"
	"aurora/internal/trace"
)

// opKind is one kind of foreground operation.
type opKind uint8

const (
	opRead         opKind = iota // whole-file Client.Read, byte-verified
	opCreate                     // whole-file Client.Create at k=3
	opLocations                  // get_locations
	opStat                       // stat_file
	opCreateDelete               // create then delete a one-block file
	opList                       // list_files
)

func (k opKind) String() string {
	return [...]string{"read", "create", "get_locations", "stat_file", "create_delete", "list_files"}[k]
}

// op is one planned operation: what to do and on which key. For reads
// and metadata lookups the key is a preloaded file; for creates it is
// the worker's running counter.
type op struct {
	kind opKind
	key  int
}

// workload is one row of the benchmark: a cluster shape, a preloaded
// dataset, a seeded plan of operations and the loop that issues them.
// Sizes are fields so the tests can run the same code shrunken.
type workload struct {
	Name    string      `json:"name"`
	Cluster clusterSpec `json:"cluster"`
	// Files are preloaded during set-up, each of FileBytes bytes.
	Files     int `json:"files"`
	FileBytes int `json:"file_bytes"`
	// Workers is the number of concurrent clients: the closed loop's
	// client count, or the open loop's bound on requests in flight.
	Workers int `json:"workers"`
	// Rate is the open loop's offered load in ops/s; 0 makes the loop
	// closed.
	Rate float64 `json:"open_loop_rate"`
	// OptimizeEvery schedules NameNode.OptimizeNow during the timed
	// phase; 0 keeps the optimizer out of it.
	OptimizeEvery time.Duration `json:"optimize_every_ns"`
	// Limit is the latency limit within_limit_frac counts against.
	Limit time.Duration `json:"latency_limit_ns"`
	// Scenario names the trace generator whose job order picks keys;
	// empty means the workload draws keys itself. ScenarioRate is its
	// jobs per scenario hour, which sets how many seconds of the run one
	// scenario hour takes at the rate the workload issues operations.
	Scenario     string  `json:"scenario,omitempty"`
	ScenarioRate float64 `json:"scenario_jobs_per_hour,omitempty"`
	// Live bounds how many created files write_pipeline keeps before
	// its rolling delete.
	Live int `json:"live_files,omitempty"`

	planner planFunc
}

// blocksPerFile is how many blocks a preloaded file splits into.
func (w *workload) blocksPerFile() int {
	return (w.FileBytes + w.Cluster.BlockSize - 1) / w.Cluster.BlockSize
}

// datasetBlocks is the steady number of blocks the namenode manages.
func (w *workload) datasetBlocks() int { return w.Files * w.blocksPerFile() }

// workloads returns the four workloads at full size, in run order.
// Sizes are what this two-core sandbox preloads in a few seconds and
// still turns into at least 200 latency samples per run (README.md,
// "Sizes").
func workloads() []*workload {
	dataCluster := clusterSpec{Nodes: 6, Racks: 2, BlockSize: 256 << 10, Shards: 1}
	onDisk := dataCluster
	onDisk.Disk = true
	return []*workload{
		{
			Name: "read_skewed", Cluster: onDisk, planner: planReads,
			Files: 32, FileBytes: 1 << 20, Workers: 2,
			Limit: 60 * time.Millisecond,
			// ~70 reads/s: a two-hour scenario period, burst included,
			// replays in about 9 s, so every run meets the flash crowd.
			Scenario: trace.ScenarioFlashCrowd, ScenarioRate: 200,
		},
		{
			Name: "write_pipeline", Cluster: dataCluster, planner: planCreates,
			Files: 64, FileBytes: 512 << 10, Workers: 2, Live: 64,
			Limit: 120 * time.Millisecond,
		},
		{
			Name: "meta_small", planner: planMetaMix,
			Cluster: clusterSpec{Nodes: 8, Racks: 2, BlockSize: 1 << 20, Shards: 1},
			Files:   1000, FileBytes: 512, Workers: 2,
			// Between create+delete (under 3 ms) and list_files (over 6).
			Limit: 4 * time.Millisecond,
		},
		{
			Name: "optimize_foreground", planner: planLookups,
			Cluster: clusterSpec{
				Nodes: 24, Racks: 4, BlockSize: 512, Shards: 4,
				Predictor: "seasonal", Window: time.Second,
			},
			Files: 800, FileBytes: 4 * 512, Workers: 2,
			Rate: 400, OptimizeEvery: 500 * time.Millisecond,
			Limit: 5 * time.Millisecond,
			// 400 ops/s: day and night halves of 2 s each, so popularity
			// inverts every fourth optimizer period.
			Scenario: trace.ScenarioDiurnal, ScenarioRate: 800,
		},
	}
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %v)", name, names)
}

// path is the name of preloaded file key.
func (w *workload) path(key int) string { return fmt.Sprintf("/%s/f%05d", w.Name, key) }

// fillContent writes the bytes of the file at path under seed into buf.
// Every file's content is a function of (seed, path) alone, so a read
// is verified by regenerating it; no copy of the dataset is kept.
func fillContent(buf []byte, seed uint64, path string) {
	h := fnv.New64a()
	//lint:ignore errcheck hash.Hash.Write never returns an error
	_, _ = h.Write([]byte(path))
	x := h.Sum64() ^ (seed * 0x9e3779b97f4a7c15)
	next := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	i := 0
	for ; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], next())
	}
	if i < len(buf) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], next())
		copy(buf[i:], tail[:])
	}
}

// planFunc builds one worker's seeded operation sequence. The sequence
// depends only on (workload, seed, worker): the program under test
// receives the generated operations, never the seed.
type planFunc func(w *workload, seed uint64, worker int) (func() op, error)

// plan returns worker's operation sequence under seed.
func (w *workload) plan(seed uint64, worker int) (func() op, error) {
	return w.planner(w, seed, worker)
}

// planReads reads files in the scenario's job order, the workers taking
// alternate jobs.
func planReads(w *workload, seed uint64, worker int) (func() op, error) {
	keys, err := w.scenarioKeys(seed)
	if err != nil {
		return nil, err
	}
	i := worker
	return func() op {
		k := keys[i%len(keys)]
		i += w.Workers
		return op{kind: opRead, key: k}
	}, nil
}

// planCreates creates the worker's next file; the seed shows in the
// content written, not in the sequence.
func planCreates(*workload, uint64, int) (func() op, error) {
	n := 0
	return func() op {
		n++
		return op{kind: opCreate, key: n - 1}
	}, nil
}

// planMetaMix draws the metadata mix: 60 % get_locations, 20 %
// stat_file, 10 % create+delete, 10 % list_files, on Zipf(1.1) keys.
func planMetaMix(w *workload, seed uint64, worker int) (func() op, error) {
	rng := rand.New(rand.NewPCG(seed, 0xbe7c4+uint64(worker)))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(w.Files-1))
	n := 0
	return func() op {
		key := int(zipf.Uint64())
		switch r := rng.IntN(100); {
		case r < 60:
			return op{kind: opLocations, key: key}
		case r < 80:
			return op{kind: opStat, key: key}
		case r < 90:
			n++
			return op{kind: opCreateDelete, key: n - 1}
		default:
			return op{kind: opList}
		}
	}, nil
}

// planLookups looks files up in the scenario's job order, 80 %
// get_locations and 20 % stat_file. One dispatcher issues the whole
// sequence, so every worker index gets the same keys.
func planLookups(w *workload, seed uint64, worker int) (func() op, error) {
	keys, err := w.scenarioKeys(seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0xbe7c4+uint64(worker)))
	i := 0
	return func() op {
		k := keys[i%len(keys)]
		i++
		if rng.IntN(100) < 80 {
			return op{kind: opLocations, key: k}
		}
		return op{kind: opStat, key: k}
	}, nil
}

// scenarioKeys replays the job order of the workload's scenario as file
// keys. Twenty scenario hours outlast any run; the plan wraps around if
// one ever gets that far.
func (w *workload) scenarioKeys(seed uint64) ([]int, error) {
	const hours, periodHours = 20, 2
	tr, err := trace.GenerateScenario(w.Scenario, trace.ScenarioConfig{
		Seed: seed, Files: w.Files, Hours: hours, PeriodHours: periodHours,
		JobsPerHour: w.ScenarioRate,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: scenario %s: %w", w.Scenario, err)
	}
	if len(tr.Jobs) == 0 {
		return nil, fmt.Errorf("bench: scenario %s generated no jobs", w.Scenario)
	}
	keys := make([]int, len(tr.Jobs))
	for i, j := range tr.Jobs {
		keys[i] = int(j.File) - 1
	}
	return keys, nil
}

// planHash digests the first n operations of every worker's plan, so
// two runs can show they were given the same inputs.
func (w *workload) planHash(seed uint64, n int) (uint64, error) {
	h := fnv.New64a()
	var rec [9]byte
	for worker := 0; worker < w.Workers; worker++ {
		next, err := w.plan(seed, worker)
		if err != nil {
			return 0, err
		}
		for i := 0; i < n; i++ {
			o := next()
			rec[0] = byte(o.kind)
			binary.LittleEndian.PutUint64(rec[1:], uint64(o.key))
			//lint:ignore errcheck hash.Hash.Write never returns an error
			_, _ = h.Write(rec[:])
		}
	}
	return h.Sum64(), nil
}

// worker is one closed-loop client, or one of the open loop's in-flight
// slots: its own DFS client, its own plan position and scratch buffer.
type worker struct {
	id      int
	w       *workload
	seed    uint64
	c       *client.Client
	next    func() op
	scratch []byte
	live    []string // write_pipeline: created files, oldest first
	tr      *tracer
	cur     opCursor
}

// outcome is what one executed operation reports to the loop.
type outcome struct {
	start, end time.Time // the client call alone, verification excluded
	bytes      int64     // user bytes moved
	err        error
}

// exec runs one operation and checks its result. Only the client calls
// are timed; regenerating content, comparing it, and write_pipeline's
// rolling delete happen outside the span. Any error, and any result
// that does not match what was stored, fails the operation — the
// generator never retries.
func (wk *worker) exec(o op) outcome {
	var root spanRef
	var rootStart int64
	if wk.tr != nil {
		root, rootStart = wk.tr.rec.begin(spanRef{})
		wk.cur.set(root)
	}
	out := wk.run(o)
	if wk.tr != nil {
		wk.cur.set(spanRef{})
		wk.tr.rec.finish(root, spanRef{}, "op."+o.kind.String(), rootStart, spanAttrs{bytes: out.bytes, failed: out.err != nil})
	}
	return out
}

func (wk *worker) run(o op) outcome {
	w := wk.w
	var out outcome
	switch o.kind {
	case opRead:
		path := w.path(o.key)
		out.start = time.Now()
		got, err := wk.c.Read(path)
		out.end = time.Now()
		if err != nil {
			out.err = err
			return out
		}
		out.bytes = int64(len(got))
		want := wk.scratch[:w.FileBytes]
		fillContent(want, wk.seed, path)
		if !bytes.Equal(got, want) {
			out.err = fmt.Errorf("bench: %s: read returned wrong bytes", path)
		}
	case opCreate:
		path := fmt.Sprintf("/%s/w%d/n%06d", w.Name, wk.id, o.key)
		data := wk.scratch[:w.FileBytes]
		fillContent(data, wk.seed, path)
		out.start = time.Now()
		out.err = wk.c.Create(path, data, replication)
		out.end = time.Now()
		if out.err != nil {
			return out
		}
		out.bytes = int64(len(data))
		wk.live = append(wk.live, path)
		if len(wk.live) > w.Live/w.Workers {
			oldest := wk.live[0]
			wk.live = wk.live[1:]
			if err := wk.c.Delete(oldest); err != nil {
				out.err = fmt.Errorf("bench: rolling delete: %w", err)
			}
		}
	case opLocations:
		path := w.path(o.key)
		out.start = time.Now()
		locs, err := wk.c.Locations(path)
		out.end = time.Now()
		if err != nil {
			out.err = err
			return out
		}
		if len(locs) != w.blocksPerFile() {
			out.err = fmt.Errorf("bench: %s: %d block locations, want %d", path, len(locs), w.blocksPerFile())
			return out
		}
		total := 0
		for _, l := range locs {
			total += l.Length
			if len(l.Addresses) == 0 {
				out.err = fmt.Errorf("bench: %s: block %d has no replica address", path, l.Block)
			}
		}
		if total != w.FileBytes {
			out.err = fmt.Errorf("bench: %s: locations cover %d bytes, want %d", path, total, w.FileBytes)
		}
	case opStat:
		path := w.path(o.key)
		out.start = time.Now()
		info, err := wk.c.Stat(path)
		out.end = time.Now()
		if err != nil {
			out.err = err
			return out
		}
		if info.Length != int64(w.FileBytes) || info.Blocks != w.blocksPerFile() || !info.Complete {
			out.err = fmt.Errorf("bench: %s: stat says %d bytes in %d blocks (complete=%v)", path, info.Length, info.Blocks, info.Complete)
		}
	case opCreateDelete:
		path := fmt.Sprintf("/%s/tmp/w%d/n%06d", w.Name, wk.id, o.key)
		data := wk.scratch[:w.FileBytes]
		fillContent(data, wk.seed, path)
		out.start = time.Now()
		err := wk.c.Create(path, data, replication)
		if err == nil {
			err = wk.c.Delete(path)
		}
		out.end = time.Now()
		out.err = err
		if err == nil {
			out.bytes = int64(len(data))
		}
	case opList:
		out.start = time.Now()
		files, err := wk.c.List()
		out.end = time.Now()
		if err != nil {
			out.err = err
			return out
		}
		if len(files) < w.Files {
			out.err = fmt.Errorf("bench: list returned %d files, want at least %d", len(files), w.Files)
		}
	}
	return out
}

// preload stores worker's share of the dataset: every Workers-th file,
// or its half of write_pipeline's live window.
func (wk *worker) preload() error {
	w := wk.w
	if w.Live > 0 {
		for i := 0; i < w.Live/w.Workers; i++ {
			if out := wk.run(wk.next()); out.err != nil {
				return out.err
			}
		}
		return nil
	}
	data := wk.scratch[:w.FileBytes]
	for key := wk.id; key < w.Files; key += w.Workers {
		path := w.path(key)
		fillContent(data, wk.seed, path)
		if err := wk.c.Create(path, data, replication); err != nil {
			return err
		}
	}
	return nil
}
