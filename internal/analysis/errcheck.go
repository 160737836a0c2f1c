package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/types"
)

// The error-hygiene rule: a call whose results include an error may not
// be used as a bare statement — the error silently vanishes. Explicitly
// assigning to blank (`_ = f()`) is allowed: it is visible intent, and
// the form reviewers grep for. Deferred calls (`defer f.Close()`) are
// exempt: their errors arrive after the interesting return value is
// already decided, and Close-on-cleanup is the repo's convention.
// Test files are not analyzed at all.

// resultHasError reports whether t (a single type or a tuple) contains
// the error type.
func resultHasError(t types.Type) bool {
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type()
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if types.Identical(tuple.At(i).Type(), errType) {
				return true
			}
		}
		return false
	}
	return types.Identical(t, errType)
}

// exempt reports calls whose error is noise by convention: the fmt
// print family (diagnostic output is best-effort; Fprint errors surface
// via the writer's own Close/Flush), and in-memory writers that are
// documented never to fail.
func exempt(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if ident, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := pkg.Info.Uses[ident].(*types.PkgName); ok && pkgName.Imported().Path() == "fmt" {
			switch sel.Sel.Name {
			case "Print", "Printf", "Println", "Fprint", "Fprintf", "Fprintln":
				return true
			}
		}
	}
	if t := pkg.Info.TypeOf(sel.X); t != nil {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		switch t.String() {
		case "bytes.Buffer", "strings.Builder":
			return true
		}
	}
	return false
}

// checkErrCheck flags expression statements that discard an error,
// blank assignments that do the same, and deferred Close on writable
// files (whose error is the write durability signal).
func (r *Runner) checkErrCheck(pkg *Package) {
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if !resultHasError(pkg.Info.TypeOf(call)) || exempt(pkg, call) {
					return true
				}
				r.report(call.Pos(), RuleErrCheck,
					"error returned by %s is discarded; handle it or assign to _ explicitly", callName(r, call))
			case *ast.AssignStmt:
				r.checkBlankErrAssign(pkg, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					r.checkDeferredFileClose(pkg, n)
				}
			}
			return true
		})
	}
}

// callName renders a call's function expression for messages.
func callName(r *Runner, call *ast.CallExpr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, r.mod.Fset, call.Fun); err != nil {
		return "call"
	}
	return buf.String()
}

// checkBlankErrAssign flags assignments whose error results all land in
// the blank identifier (`_ = f()`, `_, _, _ = rpc(...)`). PR 1 allowed
// the form as visible intent; with //lint:ignore available the intent
// now has to carry a reason, so silent drops stop hiding among the
// deliberate ones.
func (r *Runner) checkBlankErrAssign(pkg *Package, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	t := pkg.Info.TypeOf(call)
	if !resultHasError(t) || exempt(pkg, call) {
		return
	}
	errType := types.Universe.Lookup("error").Type()
	anyErr, allBlank := false, true
	if tuple, ok := t.(*types.Tuple); ok {
		for i := 0; i < tuple.Len() && i < len(assign.Lhs); i++ {
			if types.Identical(tuple.At(i).Type(), errType) {
				anyErr = true
				if id, ok := assign.Lhs[i].(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
				}
			}
		}
	} else if len(assign.Lhs) == 1 {
		anyErr = true
		if id, ok := assign.Lhs[0].(*ast.Ident); !ok || id.Name != "_" {
			allBlank = false
		}
	}
	if !anyErr || !allBlank {
		return
	}
	r.report(assign.Pos(), RuleErrCheck,
		"error returned by %s is discarded by assignment to _; handle it or annotate //lint:ignore errcheck <why>", callName(r, call))
}

// checkDeferredFileClose flags `defer f.Close()` on an *os.File that
// this function opened for writing: the Close error is where a failed
// flush surfaces, so dropping it can silently truncate output. Files
// opened with os.Open are read-only and stay exempt, as does every
// non-file Close (the repo's cleanup convention).
func (r *Runner) checkDeferredFileClose(pkg *Package, fd *ast.FuncDecl) {
	// Pass 1: how each *os.File variable in this function was opened.
	readOnly := make(map[types.Object]bool)
	writable := make(map[types.Object]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 || len(assign.Lhs) == 0 {
			return true
		}
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
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
		if !ok || pkgName.Imported().Path() != "os" {
			return true
		}
		target, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Defs[target]
		if obj == nil {
			obj = pkg.Info.Uses[target]
		}
		if obj == nil {
			return true
		}
		switch sel.Sel.Name {
		case "Open":
			readOnly[obj] = true
		case "Create", "OpenFile", "CreateTemp":
			writable[obj] = true
		}
		return true
	})
	if len(writable) == 0 {
		return
	}
	// Pass 2: deferred Close on a writable file.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		def, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(def.Call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Close" {
			return true
		}
		ident, ok := ast.Unparen(sel.X).(*ast.Ident)
		if !ok {
			return true
		}
		obj := pkg.Info.Uses[ident]
		if obj == nil || !writable[obj] || readOnly[obj] {
			return true
		}
		r.report(def.Call.Pos(), RuleErrCheck,
			"deferred Close on writable file %s discards the flush error; close explicitly on the success path and check it", ident.Name)
		return true
	})
}
