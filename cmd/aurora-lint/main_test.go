package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"aurora/internal/analysis"
)

// finding is one expected diagnostic: file is root-relative with
// forward slashes, msg is the exact message text.
type finding struct {
	file string
	line int
	rule string
	msg  string
}

var (
	fixtureOnce   sync.Once
	fixtureRoot   string
	fixtureRunner *analysis.Runner
	fixtureErr    error
)

// fixture loads the fixture module and runs every analyzer exactly once
// for the whole test binary — the same single-load model the CLI uses.
func fixture(t *testing.T) (*analysis.Runner, string) {
	t.Helper()
	fixtureOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("testdata", "src"))
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureRoot = root
		mod, err := analysis.LoadModule(root)
		if err != nil {
			fixtureErr = err
			return
		}
		r, err := analysis.NewRunner(mod)
		if err != nil {
			fixtureErr = err
			return
		}
		r.Run()
		fixtureRunner = r
	})
	if fixtureErr != nil {
		t.Fatalf("fixture: %v", fixtureErr)
	}
	return fixtureRunner, fixtureRoot
}

func TestRulesOnFixtures(t *testing.T) {
	r, root := fixture(t)

	tests := []struct {
		pkg  string
		want []finding
	}{
		{
			pkg: "guarded",
			want: []finding{
				{"guarded/guarded.go", 25, analysis.RuleGuardedBy,
					`Counter.Bad accesses "n" without holding mu (guarded fields follow their mutex in the struct; see DESIGN.md)`},
				{"guarded/guarded.go", 30, analysis.RuleGuardedBy,
					`Counter.Early accesses "n" (guarded by mu) before acquiring the lock`},
			},
		},
		{
			pkg: "determ",
			want: []finding{
				{"determ/determ.go", 13, analysis.RuleDeterminism,
					"global rand.Intn in a deterministic package; thread a seeded *rand.Rand instead"},
				{"determ/determ.go", 13, analysis.RuleDeterminism,
					"time.Now reads the wall clock in a deterministic package; thread an explicit clock"},
				{"determ/determ.go", 28, analysis.RuleDeterminism,
					"time.After reads the wall clock in a deterministic package; thread an explicit clock"},
				{"determ/determ.go", 29, analysis.RuleDeterminism,
					"time.NewTicker reads the wall clock in a deterministic package; thread an explicit clock"},
			},
		},
		{
			pkg: "floats",
			want: []finding{
				{"floats/floats.go", 8, analysis.RuleFloatCmp,
					"exact float comparison (==) in a strict-float package; use the epsilon helper (floatEq) or //lint:ignore floatcmp <why>"},
				// line 14's != is suppressed by the //lint:ignore above it.
			},
		},
		{
			pkg: "errs",
			want: []finding{
				{"errs/errs.go", 13, analysis.RuleErrCheck,
					"error returned by os.Remove is discarded; handle it or assign to _ explicitly"},
				{"errs/errs.go", 18, analysis.RuleErrCheck,
					"error returned by os.Remove is discarded by assignment to _; handle it or annotate //lint:ignore errcheck <why>"},
				// Annotated's discard on line 24 is suppressed.
				{"errs/errs.go", 33, analysis.RuleErrCheck,
					"deferred Close on writable file f discards the flush error; close explicitly on the success path and check it"},
				// ReadIn's deferred Close (os.Open) is exempt.
			},
		},
		{
			pkg: "directives",
			want: []finding{
				{"directives/directives.go", 4, analysis.RuleDirective,
					`unknown //lint: directive "nonsense"`},
				{"directives/directives.go", 6, analysis.RuleDirective,
					"//lint:ignore needs a rule and a reason: //lint:ignore <rule> <why>"},
				{"directives/directives.go", 8, analysis.RuleDirective,
					`unknown rule "badrule" in //lint:ignore`},
				{"directives/directives.go", 13, analysis.RuleDirective,
					"//lint:coldpath needs a reason: //lint:coldpath <why>"},
				{"directives/directives.go", 15, analysis.RuleDirective,
					"//lint:hotpath must be in the doc comment of a function declaration"},
			},
		},
		{
			pkg: "nodoc",
			want: []finding{
				{"nodoc/nodoc.go", 1, analysis.RulePkgDoc,
					`package nodoc lacks a doc comment; start one file with "// Package nodoc ..."`},
			},
		},
		{
			pkg: "lockorder",
			want: []finding{
				{"lockorder/lockorder.go", 30, analysis.RuleLockOrder,
					"inconsistent lock order: lockorder.B.mu acquired while holding lockorder.A.mu here, but the reverse order at lockorder.go:39; pick one global acquisition order"},
				{"lockorder/lockorder.go", 62, analysis.RuleLockOrder,
					"re-lock: lockorder.A.mu is acquired here while the same receiver already holds it; sync mutexes are not reentrant, so this self-deadlocks"},
				// Merge (another instance's lock) and Unlocked (released
				// first) are never reported.
			},
		},
		{
			pkg: "ctxdeadline",
			want: []finding{
				{"ctxdeadline/ctxdeadline.go", 45, analysis.RuleCtxDeadline,
					"fire-and-forget RPC: n.call discards its error outside any retrypolicy context; run it under Policy.Do (or a wrapper like retryDo) or handle the error"},
				{"ctxdeadline/ctxdeadline.go", 51, analysis.RuleCtxDeadline,
					"fire-and-forget RPC: n.call discards its error outside any retrypolicy context; run it under Policy.Do (or a wrapper like retryDo) or handle the error"},
			},
		},
		{
			pkg: "rngtaint",
			want: []finding{
				{"rngtaint/rngtaint.go", 19, analysis.RuleRngTaint,
					"nondeterministic value (time.Now) flows into det.Place, which must be replayable from a seed; derive it from the experiment seed or an explicit clock"},
				{"rngtaint/rngtaint.go", 24, analysis.RuleRngTaint,
					"nondeterministic value (tainted call seedFromClock) flows into det.Place, which must be replayable from a seed; derive it from the experiment seed or an explicit clock"},
				{"rngtaint/rngtaint.go", 29, analysis.RuleRngTaint,
					"nondeterministic value (global rand.Int63) flows into det.Place, which must be replayable from a seed; derive it from the experiment seed or an explicit clock"},
			},
		},
		{
			pkg: "rngtaint/det",
			want: []finding{
				{"rngtaint/det/det.go", 18, analysis.RuleRngTaint,
					`map iteration order leaks into "out" (append under range over a map, never sorted in this function); sort the keys or the result`},
			},
		},
		{
			pkg: "wrapcheck",
			want: []finding{
				{"wrapcheck/wrapcheck.go", 15, analysis.RuleWrapCheck,
					"error flattened by %v in fmt.Errorf; use %w (or return a typed error) so errors.Is/As and retry classification keep seeing the chain"},
				{"wrapcheck/wrapcheck.go", 20, analysis.RuleWrapCheck,
					"error flattened by %v in fmt.Errorf; use %w (or return a typed error) so errors.Is/As and retry classification keep seeing the chain"},
			},
		},
		{
			pkg: "allochot",
			want: []finding{
				{"allochot/allochot.go", 12, analysis.RuleAllocHot,
					"make heap-allocates in Hot on a hot path (reachable from //lint:hotpath root Hot)"},
				{"allochot/allochot.go", 21, analysis.RuleAllocHot,
					"append may grow its backing array in grow on a hot path (reachable from //lint:hotpath root Hot)"},
				{"allochot/allochot.go", 27, analysis.RuleAllocHot,
					"value of type int is boxed into an interface in boxed on a hot path (reachable from //lint:hotpath root Hot)"},
				// cold's fmt.Sprintf is pruned by //lint:coldpath.
			},
		},
		{
			pkg: "goroleak",
			want: []finding{
				{"goroleak/goroleak.go", 12, analysis.RuleGoroLeak,
					"goroutine spawned by SpinLit (go func literal) has no provable termination signal (context, done channel, WaitGroup, or internal/par)"},
				{"goroleak/goroleak.go", 26, analysis.RuleGoroLeak,
					"goroutine spawned by SpinNamed (go goroleak.spin) has no provable termination signal (context, done channel, WaitGroup, or internal/par)"},
				{"goroleak/goroleak.go", 34, analysis.RuleGoroLeak,
					"goroutine spawned by SpinTransitive (go goroleak.relay) has no provable termination signal (context, done channel, WaitGroup, or internal/par)"},
				// WaitDone/Tracked/WatchCtx carry done-channel, WaitGroup
				// and (transitive) context signals — all clean.
			},
		},
		{
			pkg: "internal/dfs/proto",
			want: []finding{
				{"internal/dfs/proto/proto.go", 65, analysis.RulePkgDoc,
					"exported wire-protocol type ChunkFrame lacks a doc comment; document every frame type (DESIGN.md §15)"},
			},
		},
		{
			pkg: "protoconform",
			want: []finding{
				{"protoconform/protoconform.go", 17, analysis.RuleProtoConform,
					"stream-opening proto.MsgWriteBlockStream dispatched by one-shot handler (*node).dispatchLoose; stream openings must go through proto.ServeStreams (DESIGN.md §15.1)"},
				{"protoconform/protoconform.go", 28, analysis.RuleProtoConform,
					"write handler (*node).streamLoose never stores the block (no store Put call) before the proto.MsgStreamAck commit (DESIGN.md §15.4 head-durable contract)"},
				{"protoconform/protoconform.go", 28, analysis.RuleProtoConform,
					"write handler (*node).streamLoose never records the block in its report tracker (no noteReceived call) before the proto.MsgStreamAck commit (DESIGN.md §15.4 head-durable contract)"},
				{"protoconform/protoconform.go", 28, analysis.RuleProtoConform,
					"write handler (*node).streamLoose never reports proto.MsgBlockReceived to the namenode before the proto.MsgStreamAck commit (DESIGN.md §15.4 head-durable contract)"},
				{"protoconform/protoconform.go", 32, analysis.RuleProtoConform,
					"control request proto.MsgHeartbeatDelta dispatched by stream handler (*node).streamLoose; it belongs on the request/response plane (DESIGN.md §15.1)"},
				{"protoconform/protoconform.go", 42, analysis.RuleProtoConform,
					"dispatcher (*node).streamDup handles no case for proto.MsgReadBlockStream (DESIGN.md §15.1: every request MsgType has exactly one handler)"},
				{"protoconform/protoconform.go", 43, analysis.RuleProtoConform,
					"proto.MsgWriteBlockStream is dispatched more than once (first at protoconform.go:28) (DESIGN.md §15.1: every request MsgType has exactly one handler)"},
				{"protoconform/protoconform.go", 52, analysis.RuleProtoConform,
					"chunk consumer (*node).recvNoVerify never verifies proto.ChunkChecksum over received chunks (DESIGN.md §15.1: every receiver verifies the per-chunk CRC before accepting)"},
				{"protoconform/protoconform.go", 71, analysis.RuleProtoConform,
					"chunk consumer (*node).recvIntoNoVerify never verifies proto.ChunkChecksum over received chunks (DESIGN.md §15.1: every receiver verifies the per-chunk CRC before accepting)"},
				{"protoconform/protoconform.go", 89, analysis.RuleProtoConform,
					"delta reporter (*node).deltaMute never reads the response's FullReport flag; the namenode could never demand a resync (DESIGN.md §15.5)"},
				{"protoconform/protoconform.go", 89, analysis.RuleProtoConform,
					"delta reporter (*node).deltaMute never sets FullReport on a report; it could never send the full report a resync needs (DESIGN.md §15.5)"},
				// deltaWaved's two findings are //lint:ignore'd.
				{"protoconform/protoconform.go", 104, analysis.RuleDirective,
					"//lint:ignore needs a rule and a reason: //lint:ignore <rule> <why>"},
				{"protoconform/protoconform.go", 112, analysis.RuleProtoConform,
					"proto.MsgHeartbeatDelta handler never sets FullReport on its response; divergence could never escalate to a resync (DESIGN.md §15.5)"},
			},
		},
		// The §15-conformant mirrors are exactly clean: every check the
		// protoconform package trips is satisfied here.
		{pkg: "internal/dfs/datanode", want: nil},
		{pkg: "internal/dfs/namenode", want: nil},
		{pkg: "internal/retrypolicy", want: nil},
		{pkg: "clean", want: nil},
	}

	for _, tc := range tests {
		t.Run(tc.pkg, func(t *testing.T) {
			var got []finding
			for _, d := range r.Diagnostics(map[string]bool{tc.pkg: true}) {
				rel, err := filepath.Rel(root, d.Pos.Filename)
				if err != nil {
					rel = d.Pos.Filename
				}
				got = append(got, finding{filepath.ToSlash(rel), d.Pos.Line, d.Rule, d.Message})
			}
			if len(got) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\ngot:  %+v\nwant: %+v", len(got), len(tc.want), got, tc.want)
			}
			for i, w := range tc.want {
				if got[i] != w {
					t.Errorf("diagnostic %d:\ngot:  %+v\nwant: %+v", i, got[i], w)
				}
			}
		})
	}
}

// capture runs the CLI entry point with temp stdout/stderr files.
func capture(t *testing.T, args []string) (int, string, string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatalf("temp: %v", err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "err")
	if err != nil {
		t.Fatalf("temp: %v", err)
	}
	code := run(args, outF, errF)
	outB, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatalf("read stdout: %v", err)
	}
	errB, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatalf("read stderr: %v", err)
	}
	return code, string(outB), string(errB)
}

// TestRunEndToEnd drives the CLI against the fixture module: findings
// mean exit 1, a clean package exits 0, and a bad root exits 2.
func TestRunEndToEnd(t *testing.T) {
	_, root := fixture(t)

	t.Run("findings exit 1", func(t *testing.T) {
		code, out, errOut := capture(t, []string{"-root", root, "./..."})
		if code != 1 {
			t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
		}
		for _, want := range []string{
			"guarded/guarded.go:25:",
			"errs/errs.go:13:",
			"determ/determ.go:13:",
			"floats/floats.go:8:",
			"lockorder/lockorder.go:30:",
			"ctxdeadline/ctxdeadline.go:45:",
			"rngtaint/rngtaint.go:19:",
			"wrapcheck/wrapcheck.go:15:",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("stdout missing %q:\n%s", want, out)
			}
		}
		if !strings.Contains(errOut, "finding(s)") {
			t.Errorf("stderr missing summary: %q", errOut)
		}
	})

	t.Run("clean package exits 0", func(t *testing.T) {
		code, out, errOut := capture(t, []string{"-root", root, "clean"})
		if code != 0 {
			t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
		}
		if strings.TrimSpace(out) != "" {
			t.Errorf("stdout not empty: %q", out)
		}
	})

	t.Run("bad root exits 2", func(t *testing.T) {
		code, _, _ := capture(t, []string{"-root", filepath.Join(root, "does-not-exist"), "./..."})
		if code != 2 {
			t.Fatalf("exit code = %d, want 2", code)
		}
	})
}

// TestSelfLint keeps the repository itself clean: aurora-lint run on
// the aurora module (including cmd/aurora-lint and internal/analysis)
// must report nothing. This is the same gate CI runs, expressed as a
// plain test so `go test ./...` catches regressions without the
// Makefile.
func TestSelfLint(t *testing.T) {
	root, err := findModuleRoot()
	if err != nil {
		t.Fatalf("findModuleRoot: %v", err)
	}
	mod, err := analysis.LoadModule(root)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", root, err)
	}
	r, err := analysis.NewRunner(mod)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	r.Run()
	for _, d := range r.Diagnostics(nil) {
		t.Errorf("%s", d)
	}
}

// mutation is one seeded bug: a textual edit of a real source file (old
// occurs exactly once) and, per expected diagnostic, a substring of the
// edited file that marks its line, so unrelated edits above a mutation
// site do not move the expectation.
type mutation struct {
	name     string
	file     string
	old, new string
	rule     string
	at       []string
}

// seededMutations is the evidence half of the tooling audit (DESIGN.md
// §11): every rule in analysis.KnownRules owns at least one mutation of
// the real tree that it alone reports — the expected set is exact, so a
// second rule firing on the same edit fails the test — and go vet is
// silent on all of them.
var seededMutations = []mutation{
	{
		name: "relock ReconcileOnce", rule: analysis.RuleLockOrder,
		file: "internal/dfs/namenode/reconcile.go",
		old:  "\tif !nn.ready {\n\t\tnn.mu.Unlock()\n\t\treturn\n\t}\n\tnn.checkNodesLocked()",
		new:  "\tif !nn.Ready() {\n\t\tnn.mu.Unlock()\n\t\treturn\n\t}\n\tnn.checkNodesLocked()",
		at:   []string{"if !nn.Ready() {\n\t\tnn.mu.Unlock()\n\t\treturn\n\t}\n\tnn.checkNodesLocked()"},
	},
	{
		name: "relock handleStat", rule: analysis.RuleLockOrder,
		file: "internal/dfs/namenode/namenode.go",
		old:  "\tf, ok := nn.files[req.Path]\n\tif !ok {\n\t\treturn nil, fmt.Errorf(\"%w: %s\", ErrFileNotFound, req.Path)\n\t}\n\tinfo :=",
		new:  "\tf, ok := nn.files[req.Path]\n\tif !ok || !nn.Ready() {\n\t\treturn nil, fmt.Errorf(\"%w: %s\", ErrFileNotFound, req.Path)\n\t}\n\tinfo :=",
		at:   []string{"if !ok || !nn.Ready() {"},
	},
	{
		name: "relock Controller.record", rule: analysis.RuleLockOrder,
		file: "internal/aurora/controller.go",
		old:  "\t\tc.consecErrors++\n",
		new:  "\t\tc.consecErrors = c.Stats().Errors\n",
		at:   []string{"c.consecErrors = c.Stats().Errors"},
	},
	{
		name: "fault log read without its lock", rule: analysis.RuleGuardedBy,
		file: "internal/faultinject/faultinject.go",
		old:  "\tinj.mu.Lock()\n\tdefer inj.mu.Unlock()\n\tout := make([]string, len(inj.log))\n",
		new:  "\tout := make([]string, len(inj.log))\n",
		at:   []string{"out := make([]string, len(inj.log))"},
	},
	{
		// The install runs under runPeriod's periodMu, so the edit is
		// both an inversion (runPeriod takes nn.mu under periodMu in
		// its snapshot) and a re-lock.
		name: "periodMu under nn.mu", rule: analysis.RuleLockOrder,
		file: "internal/dfs/namenode/reconcile.go",
		old:  "\tnn.mu.Lock()\n\theld := time.Now()\n\tnn.syncPendingLocked()\n\tnn.walk = nn.walk[:0]\n",
		new:  "\tnn.mu.Lock()\n\tnn.periodMu.Lock()\n\tdefer nn.periodMu.Unlock()\n\theld := time.Now()\n\tnn.syncPendingLocked()\n\tnn.walk = nn.walk[:0]\n",
		at:   []string{"plan, window, err := nn.snapshotPeriod()", "if !nn.installPlan(plan) {"},
	},
	{
		name: "par worker without Done", rule: analysis.RuleGoroLeak,
		file: "internal/par/par.go",
		old:  "\t\t\tdefer wg.Done()\n",
		new:  "",
		at:   []string{"\t\tgo func() {"},
	},
	{
		name: "accessor without its lock", rule: analysis.RuleGuardedBy,
		file: "internal/dfs/namenode/namenode.go",
		old:  "func (nn *NameNode) FsImageSaves() int64 {\n\tnn.mu.Lock()\n\tdefer nn.mu.Unlock()\n",
		new:  "func (nn *NameNode) FsImageSaves() int64 {\n",
		at:   []string{"return nn.fsSaves"},
	},
	{
		name: "global rand in the simulator", rule: analysis.RuleDeterminism,
		file: "internal/sim/ror.go",
		old:  "rand.New(rand.NewPCG(seed^0x9e37, seed))",
		new:  "rand.New(rand.NewPCG(rand.Uint64(), seed))",
		at:   []string{"rand.New(rand.NewPCG(rand.Uint64(), seed))"},
	},
	{
		name: "exact float tie-break", rule: analysis.RuleFloatCmp,
		file: "internal/core/initial.go",
		old:  "\t\tif !floatEq(la, lb) {\n",
		new:  "\t\tif la != lb {\n",
		at:   []string{"\t\tif la != lb {\n"},
	},
	{
		name: "dropped Close error", rule: analysis.RuleErrCheck,
		file: "internal/dfs/proto/stream.go",
		old:  "\tif err := conn.raw.Close(); err != nil {\n\t\treturn fmt.Errorf(\"proto: stream close: %w\", err)\n\t}\n\treturn nil\n",
		new:  "\tconn.raw.Close()\n\treturn nil\n",
		at:   []string{"\tconn.raw.Close()\n\treturn nil\n"},
	},
	{
		name: "misspelt directive", rule: analysis.RuleDirective,
		file: "internal/metrics/gauge.go",
		old:  "//lint:hotpath\nfunc (g *Gauge) Set(",
		new:  "//lint:hotpth\nfunc (g *Gauge) Set(",
		at:   []string{"//lint:hotpth"},
	},
	{
		name: "detached package comment", rule: analysis.RulePkgDoc,
		file: "internal/sched/sched.go",
		old:  "// schedulers (capacity/fair) make.\npackage sched",
		new:  "// schedulers (capacity/fair) make.\n\npackage sched",
		at:   []string{"package sched"},
	},
	{
		name: "annotated fire-and-forget report", rule: analysis.RuleCtxDeadline,
		file: "internal/dfs/datanode/datanode.go",
		old:  "\tif _, _, err := dn.call(dn.cfg.NameNodeAddr, &proto.Message{\n\t\tType:      proto.MsgBlockReceived,\n\t\tNode:      dn.id,\n\t\tBlock:     id,\n\t\tPipeline:  vouched,\n\t\tNamespace: dn.ns,\n\t}, nil, dn.cfg.Timeout); err != nil {\n\t\tmetrics.Default.Counter(\"dfs.datanode.report_dropped\").Inc()\n\t}\n",
		new:  "\t//lint:ignore errcheck best effort: the next heartbeat repairs it\n\t_, _, _ = dn.call(dn.cfg.NameNodeAddr, &proto.Message{\n\t\tType:      proto.MsgBlockReceived,\n\t\tNode:      dn.id,\n\t\tBlock:     id,\n\t\tPipeline:  vouched,\n\t\tNamespace: dn.ns,\n\t}, nil, dn.cfg.Timeout)\n",
		at:   []string{"\t_, _, _ = dn.call(dn.cfg.NameNodeAddr, &proto.Message{\n\t\tType:      proto.MsgBlockReceived"},
	},
	{
		name: "flattened error chain", rule: analysis.RuleWrapCheck,
		file: "internal/dfs/client/client.go",
		old:  "\"client: create %s: %w\"",
		new:  "\"client: create %s: %v\"",
		at:   []string{"\"client: create %s: %v\""},
	},
	{
		name: "defensive copy in the search inner loop", rule: analysis.RuleAllocHot,
		file: "internal/core/search.go",
		old:  "\tcands := p.machines[n].sorted\n\t// Only counterparts with p_j < p_i",
		new:  "\tcands := append(p.machines[n].sorted[:0:0], p.machines[n].sorted...)\n\t// Only counterparts with p_j < p_i",
		at:   []string{"cands := append(p.machines[n].sorted[:0:0]"},
	},
	{
		name: "head-durable report deleted", rule: analysis.RuleProtoConform,
		file: "internal/dfs/datanode/datapath.go",
		old:  "\t\tdn.reportReceived(open.Block, vouched)\n",
		new:  "\t\t_ = vouched\n",
		at:   []string{"\tcase proto.MsgWriteBlockStream:\n"}, // reported at the dispatch case
	},
	{
		name: "tracker record deleted", rule: analysis.RuleProtoConform,
		file: "internal/dfs/datanode/datapath.go",
		old:  "\tdn.tracker.noteReceived(open.Block)\n",
		new:  "",
		at:   []string{"\tcase proto.MsgWriteBlockStream:\n"}, // reported at the dispatch case
	},
	{
		name: "chunk receiver's checksum comparison deleted", rule: analysis.RuleProtoConform,
		file: "internal/dfs/proto/stream.go",
		old:  "\t\tcase msg.Checksum != ChunkChecksum(chunk):\n\t\t\treturn fmt.Errorf(\"%w: %w: block %d chunk %d\", ErrBadChunk, ErrChecksum, block, msg.Seq)\n",
		new:  "",
		at:   []string{"msg, chunk, err := st.RecvInto(*buf)"}, // reported at the receive
	},
	{
		name: "resync request ignored", rule: analysis.RuleProtoConform,
		file: "internal/dfs/datanode/datanode.go",
		old:  "\tif resp.FullReport {\n\t\t// The namenode detected divergence (or wants a post-rejoin\n\t\t// baseline): escalate the next heartbeat to a full report.\n\t\tdn.tracker.forceFullNext()\n\t\tmetrics.Default.Counter(\"dfs.datanode.report_resync\").Inc()\n\t}\n",
		new:  "",
		at:   []string{"\treq := &proto.Message{\n\t\tType: proto.MsgHeartbeatDelta"}, // reported at the report literal
	},
	{
		name: "wall-clock seed into DefaultSetup", rule: analysis.RuleRngTaint,
		file: "cmd/aurora-sim/main.go",
		old:  "experiments.DefaultSetup(*seed)",
		new:  "experiments.DefaultSetup(*seed + uint64(time.Now().UnixNano()))",
		at:   []string{"experiments.DefaultSetup(*seed + uint64(time.Now().UnixNano()))"},
	},
}

// TestSeededMutations copies the module once, applies every mutation,
// loads the result once and requires exactly the expected diagnostics.
func TestSeededMutations(t *testing.T) {
	root, err := findModuleRoot()
	if err != nil {
		t.Fatalf("findModuleRoot: %v", err)
	}
	mutRoot := t.TempDir()
	if err := copyTree(root, mutRoot); err != nil {
		t.Fatalf("copy module: %v", err)
	}
	edited := make(map[string]string) // file -> content after every edit so far
	for _, m := range seededMutations {
		src, ok := edited[m.file]
		if !ok {
			data, err := os.ReadFile(filepath.Join(mutRoot, m.file))
			if err != nil {
				t.Fatalf("%s: %v", m.name, err)
			}
			src = string(data)
		}
		if n := strings.Count(src, m.old); n != 1 {
			t.Fatalf("%s: %q occurs %d times in %s, want exactly 1", m.name, m.old, n, m.file)
		}
		edited[m.file] = strings.Replace(src, m.old, m.new, 1)
	}
	for file, src := range edited {
		if err := os.WriteFile(filepath.Join(mutRoot, file), []byte(src), 0o644); err != nil {
			t.Fatalf("write %s: %v", file, err)
		}
	}

	covered := make(map[string]bool)
	var want []string
	for _, m := range seededMutations {
		covered[m.rule] = true
		for _, at := range m.at {
			src := edited[m.file]
			if n := strings.Count(src, at); n != 1 {
				t.Fatalf("%s: marker %q occurs %d times in edited %s, want exactly 1", m.name, at, n, m.file)
			}
			line := 1 + strings.Count(src[:strings.Index(src, at)], "\n")
			want = append(want, fmt.Sprintf("%s:%d: %s", m.file, line, m.rule))
		}
	}
	for _, rule := range analysis.KnownRules {
		if !covered[rule] {
			t.Errorf("rule %s has no seeded mutation; it shows one or it goes (DESIGN.md §11)", rule)
		}
	}

	mod, err := analysis.LoadModule(mutRoot)
	if err != nil {
		t.Fatalf("LoadModule(mutated): %v", err)
	}
	r, err := analysis.NewRunner(mod)
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	r.Run()
	var got []string
	for _, d := range r.Diagnostics(nil) {
		rel, err := filepath.Rel(mutRoot, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		got = append(got, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), d.Pos.Line, d.Rule))
		t.Logf("%s:%d: %s: %s", filepath.ToSlash(rel), d.Pos.Line, d.Rule, d.Message)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("diagnostics on the mutated tree:\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	// make lint runs go vet first; a mutation vet reports is no evidence
	// for the rule that also reports it.
	if testing.Short() {
		return
	}
	vet := exec.Command("go", "vet", "./...")
	vet.Dir = mutRoot
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet reports a seeded mutation (%v):\n%s", err, out)
	}
}

// copyTree copies a module's go.mod and non-test Go sources — what the
// loader reads — into a scratch root for mutation.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		name := d.Name()
		if d.IsDir() {
			if path != src && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return os.MkdirAll(out, 0o755)
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
}
