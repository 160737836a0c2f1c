package analysis

import (
	"go/ast"
	"go/types"
)

// The rngtaint analyzer generalizes the per-file determinism rule into
// interprocedural dataflow. Taint sources are wall-clock reads
// (time.Now/Since/Until), draws from the global math/rand generators,
// and map iteration order. The sinks are the module's replayable
// surfaces: any call from another package into a //lint:deterministic
// package (internal/faultinject's schedules and injector among them) —
// passing a tainted value there makes a seed-replayable computation
// depend on the wall clock or scheduler.
//
// Taint propagates through function results only: a function whose
// return expression contains a source (or a call to a tainted
// function) returns taint. It deliberately does NOT propagate from
// parameters to results — the sanctioned live-popularity path threads
// measured loads through many layers, and flagging every value that
// once passed near a clock would drown the signal. The map-order
// source is a heuristic local to deterministic packages: ranging over
// a map while appending to a slice that is never sorted afterwards in
// the same function. See DESIGN.md §11 for the soundness notes.

// taintSource classifies how an expression got tainted.
type taintSource struct {
	desc string // e.g. "time.Now", "global rand.Intn", "tainted call seedFromClock"
}

// checkRngTaint runs the module-wide taint pass.
func (r *Runner) checkRngTaint() {
	tainted := r.taintedFuncs()

	// Sink pass: cross-package calls into deterministic packages with a
	// tainted argument.
	for _, fi := range r.facts.FuncList {
		for _, site := range fi.Sites {
			if len(site.Callees) != 1 {
				continue
			}
			callee := site.Callees[0]
			cpkg := callee.Pkg()
			if cpkg == nil || cpkg == fi.Pkg.Types {
				continue
			}
			if !r.facts.deterministicPkg(cpkg) {
				continue
			}
			for _, arg := range site.Call.Args {
				if src := r.taintOf(fi.Pkg, arg, tainted); src != nil {
					r.report(arg.Pos(), RuleRngTaint,
						"nondeterministic value (%s) flows into %s.%s, which must be replayable from a seed; derive it from the experiment seed or an explicit clock",
						src.desc, cpkg.Name(), callee.Name())
				}
			}
		}
	}

	// Map-order pass, local to deterministic packages.
	for _, pkg := range r.pkgs {
		if r.modes[pkg].deterministic {
			r.checkMapOrder(pkg)
		}
	}
}

// taintedFuncs computes, to a fixpoint, the module functions whose
// results carry taint: some return expression contains a source call or
// a call to an already-tainted function.
func (r *Runner) taintedFuncs() map[*types.Func]bool {
	tainted := make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for _, fi := range r.facts.FuncList {
			if tainted[fi.Obj] {
				continue
			}
			found := false
			ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok {
					return true
				}
				for _, res := range ret.Results {
					if r.taintOf(fi.Pkg, res, tainted) != nil {
						found = true
						break
					}
				}
				return !found
			})
			if found {
				tainted[fi.Obj] = true
				changed = true
			}
		}
	}
	return tainted
}

// taintOf reports the first taint source syntactically inside an
// expression: a wall-clock or global-rand call, or a call to a function
// whose results are tainted.
func (r *Runner) taintOf(pkg *Package, e ast.Expr, tainted map[*types.Func]bool) *taintSource {
	var src *taintSource
	ast.Inspect(e, func(n ast.Node) bool {
		if src != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if desc, ok := r.sourceCall(pkg, call); ok {
			src = &taintSource{desc: desc}
			return false
		}
		for _, callee := range r.facts.resolveCallees(pkg, call) {
			if tainted[callee] {
				src = &taintSource{desc: "tainted call " + callee.Name()}
				return false
			}
		}
		return true
	})
	return src
}

// sourceCall recognizes the primitive taint sources: wall-clock reads
// and global math/rand draws.
func (r *Runner) sourceCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	ident, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkgName, ok := pkg.Info.Uses[ident].(*types.PkgName)
	if !ok {
		return "", false
	}
	switch pkgName.Imported().Path() {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "Until":
			return "time." + sel.Sel.Name, true
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[sel.Sel.Name] {
			return "global rand." + sel.Sel.Name, true
		}
	}
	return "", false
}

// checkMapOrder flags ranging over a map while appending into a slice
// that the function never sorts afterwards — the appended order is the
// runtime's randomized iteration order.
func (r *Runner) checkMapOrder(pkg *Package) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			r.checkMapOrderFunc(pkg, fd)
		}
	}
}

func (r *Runner) checkMapOrderFunc(pkg *Package, fd *ast.FuncDecl) {
	// sortedVars: objects that appear as the first argument of a sort
	// call anywhere in the function.
	sortedVars := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		ident, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pkgName, ok := pkg.Info.Uses[ident].(*types.PkgName)
		if !ok {
			return true
		}
		switch pkgName.Imported().Path() {
		case "sort", "slices":
		default:
			return true
		}
		arg := ast.Unparen(call.Args[0])
		// Sorting a subrange (slices.Sort(buf[start:])) still fixes the
		// order of everything appended this call; unwrap the slice expr.
		if sl, ok := arg.(*ast.SliceExpr); ok {
			arg = ast.Unparen(sl.X)
		}
		if ident, ok := arg.(*ast.Ident); ok {
			if obj := pkg.Info.Uses[ident]; obj != nil {
				sortedVars[obj] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pkg.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		reported := make(map[types.Object]bool)
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			assign, ok := m.(*ast.AssignStmt)
			if !ok || len(assign.Rhs) != 1 {
				return true
			}
			call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || fun.Name != "append" {
				return true
			}
			if _, isBuiltin := pkg.Info.Uses[fun].(*types.Builtin); !isBuiltin {
				return true
			}
			target, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
			if !ok {
				return true
			}
			obj := pkg.Info.Uses[target]
			if obj == nil {
				obj = pkg.Info.Defs[target]
			}
			if obj == nil || sortedVars[obj] || reported[obj] {
				return true
			}
			reported[obj] = true
			r.report(call.Pos(), RuleRngTaint,
				"map iteration order leaks into %q (append under range over a map, never sorted in this function); sort the keys or the result",
				target.Name)
			return true
		})
		return true
	})
}
