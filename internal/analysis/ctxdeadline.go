package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
)

// The ctxdeadline analyzer: every RPC — a call of proto.Call or of any
// proto.CallFunc-typed value — must either run inside a retrypolicy
// context (the op closure of (retrypolicy.Policy).Do, directly or
// through a wrapper like datanode.retryDo) or have its error result
// handled. A fire-and-forget RPC (`_, _, _ = dn.call(...)` or a bare
// statement) outside any retry context silently loses transient
// failures that the retry/backoff machinery exists to absorb. The
// deadline half of the contract is carried by construction: CallFunc's
// signature forces a timeout through every call site, and proto.Call
// substitutes DefaultTimeout for zero.
//
// Retry coverage is interprocedural: a function literal passed to Do is
// covered; a function whose every static call site is covered is
// covered; a function that forwards one of its func-typed parameters to
// Do (or to another wrapper) is a wrapper, and arguments at that
// position become covered. Calls through unresolved function values
// other than CallFunc are not tracked (incompleteness, DESIGN.md §11).

// paramKey identifies a func-typed parameter position of a function.
type paramKey struct {
	fn  *types.Func
	idx int
}

// retryCoverage is the fixpoint result: which function literals and
// declared functions execute under a retry policy.
type retryCoverage struct {
	lits  map[*ast.FuncLit]bool
	funcs map[*types.Func]bool
}

func (cov *retryCoverage) site(s *CallSite) bool {
	for _, lit := range s.Lits {
		if cov.lits[lit] {
			return true
		}
	}
	return cov.funcs[s.Fun.Obj]
}

// checkCtxDeadline flags fire-and-forget RPCs outside retry contexts.
func (r *Runner) checkCtxDeadline() {
	cov := r.retryCoverage()
	for _, fi := range r.facts.FuncList {
		for _, site := range fi.Sites {
			if !r.isRPCCall(fi.Pkg, site) {
				continue
			}
			if cov.site(site) {
				continue
			}
			if !r.discardsError(fi, site.Call) {
				continue
			}
			r.report(site.Call.Pos(), RuleCtxDeadline,
				"fire-and-forget RPC: %s discards its error outside any retrypolicy context; run it under Policy.Do (or a wrapper like retryDo) or handle the error",
				exprString(r.mod.Fset, site.Call.Fun))
		}
	}
}

// isRPCCall reports a call of proto.Call or of a proto.CallFunc value.
func (r *Runner) isRPCCall(pkg *Package, site *CallSite) bool {
	if len(site.Callees) == 1 {
		callee := site.Callees[0]
		if callee.Name() == "Call" && pathHasSuffix(callee.Pkg(), "internal/dfs/proto") {
			return true
		}
	}
	if named := namedOf(pkg.Info.TypeOf(site.Call.Fun)); named != nil {
		obj := named.Obj()
		if obj.Name() == "CallFunc" && pathHasSuffix(obj.Pkg(), "internal/dfs/proto") {
			return true
		}
	}
	return false
}

// retryCoverage computes which literals/functions run under a retry
// policy, and which parameter positions forward into one.
func (r *Runner) retryCoverage() *retryCoverage {
	cov := &retryCoverage{
		lits:  make(map[*ast.FuncLit]bool),
		funcs: make(map[*types.Func]bool),
	}
	wrappers := make(map[paramKey]bool)

	// Seed: the op parameter of every Do method in a retrypolicy
	// package (the real module's and the fixture mirror's).
	for fn := range r.facts.Funcs {
		if fn.Name() == "Do" && pathHasSuffix(fn.Pkg(), "internal/retrypolicy") {
			wrappers[paramKey{fn: fn, idx: 0}] = true
		}
	}

	paramIndex := func(fi *FuncInfo, v *types.Var) int {
		sig := fi.Obj.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			if sig.Params().At(i) == v {
				return i
			}
		}
		return -1
	}

	markCovered := func(fi *FuncInfo, arg ast.Expr) bool {
		changed := false
		switch arg := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			if !cov.lits[arg] {
				cov.lits[arg] = true
				changed = true
			}
		case *ast.Ident:
			switch obj := fi.Pkg.Info.Uses[arg].(type) {
			case *types.Func:
				if !cov.funcs[obj] {
					cov.funcs[obj] = true
					changed = true
				}
			case *types.Var:
				// Forwarding our own parameter: the enclosing function
				// is itself a wrapper at that position.
				if i := paramIndex(fi, obj); i >= 0 {
					key := paramKey{fn: fi.Obj, idx: i}
					if !wrappers[key] {
						wrappers[key] = true
						changed = true
					}
				}
			}
		case *ast.SelectorExpr:
			if obj, ok := fi.Pkg.Info.Uses[arg.Sel].(*types.Func); ok {
				// Method value (dn.register) handed to the policy.
				if !cov.funcs[obj] {
					cov.funcs[obj] = true
					changed = true
				}
			}
		}
		return changed
	}

	for changed := true; changed; {
		changed = false
		for _, fi := range r.facts.FuncList {
			for _, site := range fi.Sites {
				// Arguments at wrapper positions become covered.
				for _, callee := range site.Callees {
					for i, arg := range site.Call.Args {
						if wrappers[paramKey{fn: callee, idx: i}] && markCovered(fi, arg) {
							changed = true
						}
					}
				}
				// A wrapper may also call its op parameter from inside
				// an already-covered closure (Do(func() error { return op() })).
				if id, ok := ast.Unparen(site.Call.Fun).(*ast.Ident); ok && cov.site(site) {
					if v, ok := fi.Pkg.Info.Uses[id].(*types.Var); ok {
						if i := paramIndex(fi, v); i >= 0 {
							key := paramKey{fn: fi.Obj, idx: i}
							if !wrappers[key] {
								wrappers[key] = true
								changed = true
							}
						}
					}
				}
			}
		}
		// A function whose every known call site is covered is covered.
		for _, fi := range r.facts.FuncList {
			if cov.funcs[fi.Obj] {
				continue
			}
			callers := r.facts.CallersOf(fi.Obj)
			if len(callers) == 0 {
				continue
			}
			all := true
			for _, c := range callers {
				if !cov.site(c) {
					all = false
					break
				}
			}
			if all {
				cov.funcs[fi.Obj] = true
				changed = true
			}
		}
	}
	return cov
}

// discardsError reports whether the call's error results all vanish:
// the call is a bare/go/defer statement, or an assignment whose
// error-position targets are all blank.
func (r *Runner) discardsError(fi *FuncInfo, call *ast.CallExpr) bool {
	discarded := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if n.X == call {
				discarded = true
			}
		case *ast.GoStmt:
			if n.Call == call {
				discarded = true
			}
		case *ast.DeferStmt:
			if n.Call == call {
				discarded = true
			}
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 || n.Rhs[0] != call {
				return true
			}
			t := fi.Pkg.Info.TypeOf(call)
			errType := types.Universe.Lookup("error").Type()
			all := true
			any := false
			if tuple, ok := t.(*types.Tuple); ok {
				for i := 0; i < tuple.Len() && i < len(n.Lhs); i++ {
					if types.Identical(tuple.At(i).Type(), errType) {
						any = true
						if !isBlank(n.Lhs[i]) {
							all = false
						}
					}
				}
			} else if t != nil && types.Identical(t, errType) && len(n.Lhs) == 1 {
				any = true
				all = isBlank(n.Lhs[0])
			}
			if any && all {
				discarded = true
			}
		}
		return !discarded
	})
	return discarded
}

// exprString renders an expression compactly for messages.
func exprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return "call"
	}
	return buf.String()
}
