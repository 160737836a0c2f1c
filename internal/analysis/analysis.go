// Package analysis is aurora-lint's typed, whole-module analysis core.
// It parses every package of a module once, type-checks them in
// dependency order with go/types (stdlib importer only — the module is
// dependency-free), and exposes the shared results — ASTs, type info, a
// package graph, a static call graph and per-function summaries — to a
// set of analyzers that run off the single load.
//
// The split from cmd/aurora-lint (a thin CLI: package patterns in,
// findings out) exists so analyzers can reason
// across package boundaries: lock-acquisition order between the
// controller and its targets, deadline propagation along RPC call
// paths, and taint flow from wall-clock or unseeded-RNG reads into the
// deterministic placement algorithms. See DESIGN.md §11 for the
// architecture and per-analyzer soundness notes.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"aurora/internal/analysis/flow"
)

// The rules aurora-lint enforces. Each diagnostic names the rule that
// produced it so //lint:ignore directives can target it precisely.
// DESIGN.md §11 records, per rule, the bug or seeded mutation that
// keeps it here.
const (
	RuleGuardedBy    = "guardedby"    // guarded field accessed without its mutex
	RuleDeterminism  = "determinism"  // global rand / wall clock in deterministic package
	RuleFloatCmp     = "floatcmp"     // exact ==/!= on floats in strict-float package
	RuleErrCheck     = "errcheck"     // error result silently discarded
	RuleDirective    = "directive"    // malformed //lint: directive
	RulePkgDoc       = "pkgdoc"       // package without a godoc package comment
	RuleLockOrder    = "lockorder"    // inconsistent lock order, or a same-receiver re-lock
	RuleCtxDeadline  = "ctxdeadline"  // RPC without retry policy or deadline propagation
	RuleRngTaint     = "rngtaint"     // wall-clock/RNG taint reaching deterministic code
	RuleWrapCheck    = "wrapcheck"    // error chain broken at a package boundary
	RuleAllocHot     = "allochot"     // heap allocation reachable from a //lint:hotpath root
	RuleGoroLeak     = "goroleak"     // go statement without a provable termination signal
	RuleProtoConform = "protoconform" // dispatch state machine diverges from DESIGN.md §15
)

// KnownRules is the registry of valid rule names, used to validate
// //lint:ignore directives.
var KnownRules = []string{
	RuleGuardedBy, RuleDeterminism, RuleFloatCmp,
	RuleErrCheck, RuleDirective, RulePkgDoc,
	RuleLockOrder, RuleCtxDeadline, RuleRngTaint, RuleWrapCheck,
	RuleAllocHot, RuleGoroLeak, RuleProtoConform,
}

func knownRule(name string) bool {
	for _, r := range KnownRules {
		if r == name {
			return true
		}
	}
	return false
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// suppressKey identifies one (file, line, rule) suppression installed by
// a //lint:ignore directive.
type suppressKey struct {
	file string
	line int
	rule string
}

// Runner executes every analyzer over a whole module and collects
// diagnostics. All analyzers share one parse/type-check pass (the
// Module) and one fact store (Facts); nothing is re-parsed per rule.
type Runner struct {
	mod        *Module
	pkgs       []*Package
	facts      *Facts
	diags      []Diagnostic
	suppressed map[suppressKey]bool
	modes      map[*Package]pkgModes
	funcDirs   map[token.Pos]string // //lint:hotpath and //lint:coldpath comment positions
	flowSet    *flow.Set
}

// pkgModes is what the //lint: comments of one package declare.
type pkgModes struct {
	deterministic bool // //lint:deterministic — no global rand / wall clock
	strictfloat   bool // //lint:strictfloat — no exact float ==/!=
}

// NewRunner loads every package of the module and builds the shared
// fact store. Analyzers always see the whole module — cross-package
// analyses need the full call graph — even when the caller later
// restricts which packages diagnostics are reported for.
func NewRunner(mod *Module) (*Runner, error) {
	pkgs, err := mod.LoadAll()
	if err != nil {
		return nil, err
	}
	r := &Runner{
		mod:        mod,
		pkgs:       pkgs,
		suppressed: make(map[suppressKey]bool),
		modes:      make(map[*Package]pkgModes),
		funcDirs:   make(map[token.Pos]string),
	}
	for _, pkg := range pkgs {
		r.modes[pkg] = r.scanDirectives(pkg)
	}
	r.facts = buildFacts(mod, pkgs, r.modes)
	return r, nil
}

// Pass is one named analyzer pass, exposed so the CLI can time each
// analyzer individually (-timing).
type Pass struct {
	Name string
	run  func()
}

// Run executes the pass.
func (p Pass) Run() { p.run() }

// perPkg lifts a per-package rule (optionally gated on a package mode)
// into a whole-module pass.
func (r *Runner) perPkg(check func(*Package), gate func(pkgModes) bool) func() {
	return func() {
		for _, pkg := range r.pkgs {
			if gate == nil || gate(r.modes[pkg]) {
				check(pkg)
			}
		}
	}
}

// Passes returns every analyzer as a named pass, in execution order. The
// "flow" pass builds the interprocedural dataflow summaries the two
// passes after it consume; keeping it explicit makes its cost visible
// under -timing.
func (r *Runner) Passes() []Pass {
	return []Pass{
		{Name: "guardedby", run: r.perPkg(r.checkGuardedBy, nil)},
		{Name: "determinism", run: r.perPkg(r.checkDeterminism, func(m pkgModes) bool { return m.deterministic })},
		{Name: "floatcmp", run: r.perPkg(r.checkFloatCmp, func(m pkgModes) bool { return m.strictfloat })},
		{Name: "errcheck", run: r.perPkg(r.checkErrCheck, nil)},
		{Name: "pkgdoc", run: r.perPkg(r.checkPkgDoc, nil)},
		{Name: "wrapcheck", run: r.perPkg(r.checkWrapCheck, nil)},
		{Name: "lockorder", run: r.checkLockOrder},
		{Name: "ctxdeadline", run: r.checkCtxDeadline},
		{Name: "rngtaint", run: r.checkRngTaint},
		{Name: "flow", run: func() { r.Flow() }},
		{Name: "allochot", run: r.checkAllocHot},
		{Name: "goroleak", run: r.checkGoroLeak},
		{Name: "protoconform", run: r.checkProtoConform},
	}
}

// Run executes every analyzer. Per-package rules run over each package;
// whole-module analyzers run once off the fact store.
func (r *Runner) Run() {
	for _, p := range r.Passes() {
		p.Run()
	}
}

// Flow builds (once) and returns the interprocedural dataflow summaries
// for every function in the module.
func (r *Runner) Flow() *flow.Set {
	if r.flowSet != nil {
		return r.flowSet
	}
	byInfo := make(map[*types.Info]*Package, len(r.pkgs))
	for _, pkg := range r.pkgs {
		byInfo[pkg.Info] = pkg
	}
	funcs := make([]flow.Func, 0, len(r.facts.FuncList))
	for _, fi := range r.facts.FuncList {
		funcs = append(funcs, flow.Func{Obj: fi.Obj, Decl: fi.Decl, Info: fi.Pkg.Info})
	}
	r.flowSet = flow.Build(funcs, func(fn flow.Func, call *ast.CallExpr) []*types.Func {
		pkg := byInfo[fn.Info]
		if pkg == nil {
			return nil
		}
		return r.facts.resolveCallees(pkg, call)
	})
	return r.flowSet
}

// Diagnostics returns the surviving findings sorted by position,
// filtered to packages whose root-relative directory is in keep (nil
// keeps everything).
func (r *Runner) Diagnostics(keep map[string]bool) []Diagnostic {
	out := make([]Diagnostic, 0, len(r.diags))
	for _, d := range r.diags {
		if r.suppressed[suppressKey{file: d.Pos.Filename, line: d.Pos.Line, rule: d.Rule}] {
			continue
		}
		if keep != nil && !keep[r.diagDir(d)] {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// diagDir maps a diagnostic to its module-root-relative package
// directory for pattern filtering.
func (r *Runner) diagDir(d Diagnostic) string {
	rel := strings.TrimPrefix(d.Pos.Filename, r.mod.Root)
	rel = strings.TrimPrefix(rel, "/")
	if i := strings.LastIndexByte(rel, '/'); i >= 0 {
		return rel[:i]
	}
	return "."
}

func (r *Runner) report(pos token.Pos, rule, format string, args ...any) {
	r.diags = append(r.diags, Diagnostic{
		Pos:     r.mod.Fset.Position(pos),
		Rule:    rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// shortPos renders a position as "file.go:NN" for embedding in messages
// (full paths would make fixture expectations machine-specific).
func (r *Runner) shortPos(pos token.Pos) string {
	p := r.mod.Fset.Position(pos)
	return filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line)
}

// scanDirectives interprets //lint: comments: package-mode directives
// (deterministic, strictfloat), suppressions (ignore <rule> <reason>),
// and flags anything malformed.
func (r *Runner) scanDirectives(pkg *Package) pkgModes {
	var modes pkgModes
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				fields := strings.Fields(text)
				if len(fields) == 0 {
					r.report(c.Pos(), RuleDirective, "empty //lint: directive")
					continue
				}
				switch fields[0] {
				case "deterministic":
					modes.deterministic = true
				case "strictfloat":
					modes.strictfloat = true
				case "hotpath":
					// Marks an allocation-free root for allochot. Validated
					// against function doc comments by checkAllocHot.
					r.funcDirs[c.Pos()] = "hotpath"
				case "coldpath":
					// Prunes a deliberately-cold helper out of hot-path
					// reachability. A justification is required.
					if len(fields) < 2 {
						r.report(c.Pos(), RuleDirective,
							"//lint:coldpath needs a reason: //lint:coldpath <why>")
						continue
					}
					r.funcDirs[c.Pos()] = "coldpath"
				case "ignore":
					if len(fields) < 3 {
						r.report(c.Pos(), RuleDirective,
							"//lint:ignore needs a rule and a reason: //lint:ignore <rule> <why>")
						continue
					}
					pos := r.mod.Fset.Position(c.Pos())
					for _, rule := range strings.Split(fields[1], ",") {
						if !knownRule(rule) {
							r.report(c.Pos(), RuleDirective, "unknown rule %q in //lint:ignore", rule)
							continue
						}
						// The directive silences its own line (trailing
						// comment) and the line below (standalone comment).
						r.suppressed[suppressKey{file: pos.Filename, line: pos.Line, rule: rule}] = true
						r.suppressed[suppressKey{file: pos.Filename, line: pos.Line + 1, rule: rule}] = true
					}
				default:
					r.report(c.Pos(), RuleDirective, "unknown //lint: directive %q", fields[0])
				}
			}
		}
	}
	return modes
}

// exportedFuncName reports whether a method name is exported; the
// guarded-by rule only audits the exported API surface.
func exportedFuncName(fd *ast.FuncDecl) bool {
	return fd.Name != nil && ast.IsExported(fd.Name.Name)
}
