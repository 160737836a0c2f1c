// Command aurora-lint is the project's static analyzer: a dependency-free
// correctness gate built on the typed whole-module analysis core in
// internal/analysis. One parse/type-check pass feeds every rule; each
// rule is in the set because of a real bug it caught or a seeded
// mutation of this tree that only it reports (DESIGN.md §11 has the
// table, TestSeededMutations pins it):
//
//   - guardedby:   fields declared after a sync.Mutex/RWMutex in the same
//     field group must not be touched by exported methods without the
//     lock held; see DESIGN.md "Correctness tooling".
//   - determinism: packages marked //lint:deterministic may not use
//     global math/rand or read the wall clock, directly or via timers.
//   - floatcmp:    packages marked //lint:strictfloat may not compare
//     floats with ==/!=.
//   - errcheck:    error results may not be silently discarded — as bare
//     statements, blank assignments, or a deferred Close on a file
//     opened for writing.
//   - pkgdoc:      every package carries a godoc package comment.
//   - lockorder:   the module-wide mutex acquisition graph must be
//     acyclic, and a method may not re-acquire a mutex its own receiver
//     already holds (potential- and certain-deadlock detection).
//   - ctxdeadline: RPCs must run under retrypolicy or handle their
//     error; fire-and-forget calls are flagged.
//   - rngtaint:    wall-clock/unseeded-RNG values must not flow into
//     deterministic packages or fault-schedule generation.
//   - wrapcheck:   errors formatted into fmt.Errorf must use %w so
//     errors.Is/As and retry classification keep working.
//   - allochot:    functions reachable from a //lint:hotpath-annotated
//     root may not heap-allocate; //lint:coldpath <why> prunes
//     deliberately cold helpers out of reachability.
//   - goroleak:    every go statement needs a provable termination signal
//     (context, done channel, WaitGroup, or internal/par).
//   - protoconform: checks the MsgType→handler dispatch machine in
//     internal/dfs against the DESIGN.md §15 frame tables — handler
//     uniqueness per plane, stream/control separation, per-chunk
//     ChunkChecksum verification, §15.4 head-durable store, record and
//     report ordering, and §15.5 delta→full-report escalation.
//
// allochot and goroleak read the interprocedural summaries of
// internal/analysis/flow (allocation effects, goroutines spawned,
// termination signals). Malformed //lint: comments are reported under
// the rule name "directive". Intentional exceptions are annotated in
// place:
//
//	//lint:ignore <rule>[,<rule>] <reason>
//
// Usage:
//
//	aurora-lint [./...]          # text findings, exit 1 if any
//	aurora-lint -timing ./...    # per-analyzer wall time on stderr
//	aurora-lint -root DIR ./...  # analyze the module rooted at DIR
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aurora/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	flags := flag.NewFlagSet("aurora-lint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	root := flags.String("root", "", "module root (default: walk up from cwd to go.mod)")
	timing := flags.Bool("timing", false, "print per-pass wall time to stderr")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *root == "" {
		r, err := findModuleRoot()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		*root = r
	}
	mod, err := analysis.LoadModule(*root)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rels, err := resolvePatterns(mod, patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	// The whole module is always loaded — the cross-package analyzers
	// need the full call graph — and the patterns only filter which
	// packages findings are reported for.
	loadStart := time.Now()
	runner, err := analysis.NewRunner(mod)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *timing {
		fmt.Fprintf(stderr, "aurora-lint: %-12s %9.1fms\n", "load+facts", ms(time.Since(loadStart)))
	}
	for _, p := range runner.Passes() {
		passStart := time.Now()
		p.Run()
		if *timing {
			fmt.Fprintf(stderr, "aurora-lint: %-12s %9.1fms\n", p.Name, ms(time.Since(passStart)))
		}
	}
	keep := make(map[string]bool, len(rels))
	for _, rel := range rels {
		keep[rel] = true
	}
	diags := runner.Diagnostics(keep)
	for _, d := range diags {
		rel, err := filepath.Rel(mod.Root, d.Pos.Filename)
		if err == nil {
			d.Pos.Filename = rel
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "aurora-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// ms renders a duration as fractional milliseconds for -timing output.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// findModuleRoot walks up from the working directory to the nearest
// go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("aurora-lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// resolvePatterns expands the command-line package patterns into
// root-relative package directories. Supported forms: "./...",
// "dir/...", and plain directories.
func resolvePatterns(mod *analysis.Module, patterns []string) ([]string, error) {
	all, err := mod.PackageDirs()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	add := func(rel string) {
		if !seen[rel] {
			seen[rel] = true
			out = append(out, rel)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "./..." || pat == "..." {
			for _, rel := range all {
				add(rel)
			}
			continue
		}
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		rel, err := toModuleRel(mod, pat)
		if err != nil {
			return nil, err
		}
		matched := false
		for _, cand := range all {
			if cand == rel || (recursive && strings.HasPrefix(cand, rel+string(filepath.Separator))) {
				add(cand)
				matched = true
			}
		}
		if !matched {
			return nil, fmt.Errorf("aurora-lint: no packages match %q", pat)
		}
	}
	return out, nil
}

// toModuleRel normalizes one pattern operand to a module-root-relative
// path. Relative operands are tried against the working directory
// first (so `aurora-lint ./internal/core` works from the repo root),
// then against the module root (so `aurora-lint -root DIR pkg` works
// from anywhere).
func toModuleRel(mod *analysis.Module, pat string) (string, error) {
	p := pat
	if !filepath.IsAbs(p) {
		cwd, err := os.Getwd()
		if err != nil {
			return "", err
		}
		p = filepath.Join(cwd, p)
		if rel, err := filepath.Rel(mod.Root, p); err != nil || strings.HasPrefix(rel, "..") {
			p = filepath.Join(mod.Root, pat)
		}
	}
	rel, err := filepath.Rel(mod.Root, p)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("aurora-lint: %q is outside module root %s", pat, mod.Root)
	}
	return rel, nil
}
