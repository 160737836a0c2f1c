package main

import (
	"encoding/json"
	"os"
	"path/filepath"
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
			pkg: "copies",
			want: []finding{
				{"copies/copies.go", 13, analysis.RuleMutexCopy,
					"method receiver of ByValue passes fixture/copies.Store by value, copying its mutex; use a pointer"},
				{"copies/copies.go", 14, analysis.RuleGuardedBy,
					`Store.ByValue accesses "m" without holding mu (guarded fields follow their mutex in the struct; see DESIGN.md)`},
				{"copies/copies.go", 18, analysis.RuleMutexCopy,
					"Snapshot passes fixture/copies.Store by value, copying its mutex; use a pointer"},
				{"copies/copies.go", 19, analysis.RuleMutexCopy,
					"dereference copies fixture/copies.Store including its mutex; keep the pointer"},
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
			pkg: "atomicmix",
			want: []finding{
				{"atomicmix/atomicmix.go", 22, analysis.RuleAtomicMix,
					"field hits is updated atomically (atomic.AddInt64 at atomicmix.go:15) but read plainly here"},
				{"atomicmix/atomicmix.go", 27, analysis.RuleAtomicMix,
					"field misses is updated atomically (atomic.AddInt64 at atomicmix.go:18) but written plainly here"},
				{"atomicmix/atomicmix.go", 32, analysis.RuleAtomicMix,
					"field hits is updated atomically (atomic.AddInt64 at atomicmix.go:15) but written plainly here"},
				// Load's atomic.LoadInt64(&s.hits) is address-taken, exempt.
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
			pkg: "globalmut",
			want: []finding{
				{"globalmut/globalmut.go", 9, analysis.RuleGlobalMut,
					"package-level variable hits is mutated (incremented at globalmut.go:36); mutable global state blocks namenode sharding (ROADMAP #1)"},
				{"globalmut/globalmut.go", 12, analysis.RuleGlobalMut,
					"package-level variable cache is mutated (written through at globalmut.go:41); mutable global state blocks namenode sharding (ROADMAP #1)"},
				{"globalmut/globalmut.go", 20, analysis.RuleGlobalMut,
					"package-level variable shared is mutated (pointer-method call (*globalmut.box).bump at globalmut.go:46); mutable global state blocks namenode sharding (ROADMAP #1)"},
				// registry is //lint:ignore'd; pattern (immutable receiver)
				// and limit (read-only) are never reported.
			},
		},
		{
			pkg: "internal/dfs/proto",
			want: []finding{
				{"internal/dfs/proto/proto.go", 63, analysis.RulePkgDoc,
					"exported wire-protocol type ChunkFrame lacks a doc comment; document every frame type (DESIGN.md §15)"},
			},
		},
		{
			pkg: "conc",
			want: []finding{
				{"conc/conc.go", 18, analysis.RuleConc,
					`potential deadlock: goroutines wait on each other in a cycle: Lock "mu" here, send on "ch" at conc.go:23`},
				{"conc/conc.go", 19, analysis.RuleConc,
					`potential deadlock: goroutines wait on each other in a cycle: recv from "ch" here, Lock "mu" at conc.go:22`},
				{"conc/conc.go", 31, analysis.RuleConc,
					`lost signal: send on "done" blocks forever: no live goroutine can still receive from it`},
				{"conc/conc.go", 39, analysis.RuleConc,
					`stuck pipeline: recv from "acks" blocks forever: no live goroutine can still send on or close it`},
				{"conc/conc.go", 47, analysis.RuleGoroLeak,
					"goroutine spawned by WgNeverDone (go func literal) has no provable termination signal (context, done channel, WaitGroup, or internal/par)"},
				{"conc/conc.go", 50, analysis.RuleConc,
					`stuck pipeline: Wait on "wg" blocks forever: no live goroutine can still call Done on it`},
				// Waved's parked recv is //lint:ignore'd; CleanPipeline and
				// Fanout terminate and are never reported.
				{"conc/conc.go", 94, analysis.RuleDirective,
					"//lint:ignore needs a rule and a reason: //lint:ignore <rule> <why>"},
				{"conc/conc.go", 97, analysis.RuleConc,
					`lost signal: send on "late" blocks forever: no live goroutine can still receive from it`},
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
					"write handler (*node).streamLoose never reports proto.MsgBlockReceived to the namenode before the proto.MsgStreamAck commit (DESIGN.md §15.4 head-durable contract)"},
				{"protoconform/protoconform.go", 32, analysis.RuleProtoConform,
					"control request proto.MsgHeartbeat dispatched by stream handler (*node).streamLoose; it belongs on the request/response plane (DESIGN.md §15.1)"},
				{"protoconform/protoconform.go", 42, analysis.RuleProtoConform,
					"dispatcher (*node).streamDup handles no case for proto.MsgReadBlockStream (DESIGN.md §15.1: every request MsgType has exactly one handler)"},
				{"protoconform/protoconform.go", 43, analysis.RuleProtoConform,
					"proto.MsgWriteBlockStream is dispatched more than once (first at protoconform.go:28) (DESIGN.md §15.1: every request MsgType has exactly one handler)"},
				{"protoconform/protoconform.go", 52, analysis.RuleProtoConform,
					"chunk consumer (*node).recvNoVerify never verifies proto.ChunkChecksum over received chunks (DESIGN.md §15.1: every receiver verifies the per-chunk CRC before accepting)"},
				{"protoconform/protoconform.go", 69, analysis.RuleProtoConform,
					"delta reporter (*node).deltaMute never reads the response's FullReport flag; the namenode could never demand a resync (DESIGN.md §15.5)"},
				{"protoconform/protoconform.go", 69, analysis.RuleProtoConform,
					"delta reporter (*node).deltaMute never escalates to a full proto.MsgHeartbeat report (DESIGN.md §15.5: digest divergence must trigger a resync)"},
				// deltaWaved's two findings are //lint:ignore'd.
				{"protoconform/protoconform.go", 84, analysis.RuleDirective,
					"//lint:ignore needs a rule and a reason: //lint:ignore <rule> <why>"},
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

	t.Run("sarif output", func(t *testing.T) {
		code, out, _ := capture(t, []string{"-root", root, "-format", "sarif", "wrapcheck"})
		if code != 1 {
			t.Fatalf("exit code = %d, want 1", code)
		}
		var log struct {
			Version string `json:"version"`
			Runs    []struct {
				Results []struct {
					RuleID string `json:"ruleId"`
				} `json:"results"`
			} `json:"runs"`
		}
		if err := json.Unmarshal([]byte(out), &log); err != nil {
			t.Fatalf("stdout is not JSON: %v\n%s", err, out)
		}
		if log.Version != "2.1.0" || len(log.Runs) != 1 {
			t.Fatalf("unexpected SARIF shape: %+v", log)
		}
		if n := len(log.Runs[0].Results); n != 2 {
			t.Fatalf("got %d results, want 2", n)
		}
		for _, res := range log.Runs[0].Results {
			if res.RuleID != analysis.RuleWrapCheck {
				t.Errorf("ruleId = %q, want wrapcheck", res.RuleID)
			}
		}
	})
}

// TestBaselineGate is the negative fixture for baseline gating: a
// baseline generated from one package suppresses its (grandfathered)
// findings but does not mask findings from elsewhere.
func TestBaselineGate(t *testing.T) {
	_, root := fixture(t)
	baseline := filepath.Join(t.TempDir(), "lint.baseline")

	code, _, errOut := capture(t, []string{"-root", root, "-baseline", baseline, "-write-baseline", "errs"})
	if code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\nstderr:\n%s", code, errOut)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatalf("baseline not written: %v", err)
	}
	if !strings.Contains(string(data), "errcheck\terrs/errs.go") {
		t.Fatalf("baseline missing errcheck entry:\n%s", data)
	}

	t.Run("grandfathered findings suppressed", func(t *testing.T) {
		code, out, errOut := capture(t, []string{"-root", root, "-baseline", baseline, "errs"})
		if code != 0 {
			t.Fatalf("exit = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
		}
		if strings.TrimSpace(out) != "" {
			t.Errorf("stdout not empty: %q", out)
		}
		if !strings.Contains(errOut, "baselined finding(s) suppressed") {
			t.Errorf("stderr missing suppression note: %q", errOut)
		}
	})

	t.Run("new findings still fail", func(t *testing.T) {
		code, out, _ := capture(t, []string{"-root", root, "-baseline", baseline, "errs", "wrapcheck"})
		if code != 1 {
			t.Fatalf("exit = %d, want 1\nstdout:\n%s", code, out)
		}
		if strings.Contains(out, "errs/errs.go") {
			t.Errorf("baselined errs findings leaked:\n%s", out)
		}
		if !strings.Contains(out, "wrapcheck/wrapcheck.go:15:") {
			t.Errorf("new wrapcheck finding missing:\n%s", out)
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

// TestHeadDurableMutation is the seeded mutation test for protoconform:
// deleting the store-before-ack report line from the conformant
// datanode mirror must produce the §15.4 "never reports" diagnostic.
func TestHeadDurableMutation(t *testing.T) {
	_, root := fixture(t)
	mutRoot := t.TempDir()
	if err := copyTree(root, mutRoot); err != nil {
		t.Fatalf("copy fixture tree: %v", err)
	}

	target := filepath.Join(mutRoot, "internal", "dfs", "datanode", "datanode.go")
	src, err := os.ReadFile(target)
	if err != nil {
		t.Fatalf("read mirror: %v", err)
	}
	const reportLine = "\td.noteReceived(open.Block)\n"
	if !strings.Contains(string(src), reportLine) {
		t.Fatalf("mirror no longer contains the head-durable report line %q", reportLine)
	}
	mutated := strings.Replace(string(src), reportLine, "", 1)
	if err := os.WriteFile(target, []byte(mutated), 0o644); err != nil {
		t.Fatalf("write mutated mirror: %v", err)
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

	const want = "write handler (*DataNode).handleWriteStream never reports proto.MsgBlockReceived to the namenode before the proto.MsgStreamAck commit (DESIGN.md §15.4 head-durable contract)"
	found := false
	for _, d := range r.Diagnostics(map[string]bool{"internal/dfs/datanode": true}) {
		if d.Rule == analysis.RuleProtoConform && d.Message == want {
			found = true
		}
	}
	if !found {
		var got []string
		for _, d := range r.Diagnostics(nil) {
			got = append(got, d.String())
		}
		t.Fatalf("mutation not caught; want %q\ngot diagnostics:\n%s", want, strings.Join(got, "\n"))
	}
}

// copyTree copies a fixture module into a scratch root for mutation.
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
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
}
