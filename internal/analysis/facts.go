package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// The fact store: one index of every declared function in the module,
// its resolved call sites, and the reverse (caller) index. It is built
// once per Runner from the single type-checked load and shared by the
// cross-package analyzers (lockorder, ctxdeadline, rngtaint), which
// would otherwise each re-walk every AST.

// FuncInfo is the per-function summary node of the call graph.
type FuncInfo struct {
	Obj   *types.Func
	Decl  *ast.FuncDecl
	Pkg   *Package
	Sites []*CallSite // every call lexically inside the body, source order
}

// CallSite is one call expression inside a declared function, with its
// resolved callee candidates and enough lexical context for the
// analyzers: whether it runs on another goroutine, and which function
// literal (if any) it is nested in.
type CallSite struct {
	Call    *ast.CallExpr
	Callees []*types.Func  // static callee, or every module implementation for an interface call
	Fun     *FuncInfo      // enclosing declared function
	Lits    []*ast.FuncLit // enclosing function literals, outermost first (empty if directly in the decl)
	InGo    bool           // lexically inside a go statement (other goroutine)
	InDefer bool           // the deferred call of a defer statement
}

// Facts is the shared store.
type Facts struct {
	mod   *Module
	pkgs  []*Package
	modes map[*Package]pkgModes

	Funcs    map[*types.Func]*FuncInfo
	FuncList []*FuncInfo // deterministic order (source position)

	callersOf map[*types.Func][]*CallSite
	named     []*types.Named // every named type declared in the module
}

func buildFacts(mod *Module, pkgs []*Package, modes map[*Package]pkgModes) *Facts {
	f := &Facts{
		mod:       mod,
		pkgs:      pkgs,
		modes:     modes,
		Funcs:     make(map[*types.Func]*FuncInfo),
		callersOf: make(map[*types.Func][]*CallSite),
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					f.named = append(f.named, named)
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				f.Funcs[obj] = fi
				f.FuncList = append(f.FuncList, fi)
			}
		}
	}
	sort.Slice(f.FuncList, func(i, j int) bool {
		return f.FuncList[i].Decl.Pos() < f.FuncList[j].Decl.Pos()
	})
	for _, fi := range f.FuncList {
		f.collectSites(fi)
	}
	return f
}

// collectSites walks one function body recording every call with its
// lexical context, and feeds the reverse caller index.
func (f *Facts) collectSites(fi *FuncInfo) {
	var lits []*ast.FuncLit
	goDepth, deferDepth := 0, 0
	var stack []ast.Node
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top.(type) {
			case *ast.FuncLit:
				lits = lits[:len(lits)-1]
			case *ast.GoStmt:
				goDepth--
			case *ast.DeferStmt:
				deferDepth--
			}
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, n)
		case *ast.GoStmt:
			goDepth++
		case *ast.DeferStmt:
			deferDepth++
		case *ast.CallExpr:
			site := &CallSite{
				Call:    n,
				Callees: f.resolveCallees(fi.Pkg, n),
				Fun:     fi,
				Lits:    append([]*ast.FuncLit(nil), lits...),
				InGo:    goDepth > 0,
				InDefer: deferDepth > 0,
			}
			fi.Sites = append(fi.Sites, site)
			for _, callee := range site.Callees {
				f.callersOf[callee] = append(f.callersOf[callee], site)
			}
		}
		return true
	})
}

// resolveCallees resolves one call expression to its candidate callees:
// a direct function or concrete-method call resolves to exactly one; a
// call through an interface method fans out to every module type that
// implements the interface. Calls of function values (fields, params)
// resolve to nil — analyzers that care match those by the value's type.
func (f *Facts) resolveCallees(pkg *Package, call *ast.CallExpr) []*types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			m, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil
			}
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return f.implementersOf(iface, m)
			}
			return []*types.Func{m}
		}
		// No selection entry: qualified reference (pkg.Func).
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// implementersOf finds the concrete method behind an interface call for
// every module type satisfying the interface.
func (f *Facts) implementersOf(iface *types.Interface, m *types.Func) []*types.Func {
	var out []*types.Func
	seen := make(map[*types.Func]bool)
	for _, named := range f.named {
		if types.IsInterface(named) {
			continue
		}
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok && !seen[fn] {
			seen[fn] = true
			out = append(out, fn)
		}
	}
	return out
}

// CallersOf returns every call site that may invoke fn.
func (f *Facts) CallersOf(fn *types.Func) []*CallSite { return f.callersOf[fn] }

// pathHasSuffix reports whether an import path is the given
// module-relative suffix ("internal/dfs/proto" matches both
// "aurora/internal/dfs/proto" and the fixture module's mirror).
func pathHasSuffix(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	p := pkg.Path()
	return p == suffix || strings.HasSuffix(p, "/"+suffix)
}

// deterministicPkg reports whether the *types.Package belongs to a
// module package that declared //lint:deterministic.
func (f *Facts) deterministicPkg(p *types.Package) bool {
	for _, pkg := range f.pkgs {
		if pkg.Types == p {
			return f.modes[pkg].deterministic
		}
	}
	return false
}

// isBlank reports the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
