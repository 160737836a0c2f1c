package flow

import (
	"go/ast"
	"go/types"
)

// litFacts classifies the function literals of one declaration: which
// escape (their captures outlive the frame) and which locals are bound
// to a literal used only in call position (the `consider := func(...)`
// pattern the compiler keeps on the stack).
type litFacts struct {
	escaping map[*ast.FuncLit]bool
	callOnly map[*types.Var]bool
}

// lits returns the (cached) literal classification for fn's declaration.
func (s *Set) lits(fn Func) *litFacts {
	if f, ok := s.lit[fn.Decl]; ok {
		return f
	}
	f := computeLitFacts(fn)
	s.lit[fn.Decl] = f
	return f
}

func computeLitFacts(fn Func) *litFacts {
	f := &litFacts{
		escaping: make(map[*ast.FuncLit]bool),
		callOnly: make(map[*types.Var]bool),
	}
	parent := make(map[ast.Node]ast.Node)
	var lits []*ast.FuncLit
	var stack []ast.Node
	ast.Inspect(fn.Decl, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parent[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	for _, lit := range lits {
		f.escaping[lit] = true
		p := parent[lit]
		if call, ok := p.(*ast.CallExpr); ok && call.Fun == lit {
			// Immediately invoked: the frame is live for the whole call,
			// so captures stay on the stack — unless the invocation rides
			// a new goroutine.
			if _, onGoroutine := parent[call].(*ast.GoStmt); !onGoroutine {
				f.escaping[lit] = false
			}
			continue
		}
		if v := boundLocal(fn, lit, p); v != nil && callOnlyUses(fn, v, parent) {
			f.escaping[lit] = false
			f.callOnly[v] = true
		}
	}
	return f
}

// boundLocal returns the local variable a literal is bound to by its
// parent statement (`v := func(){}`, `v = func(){}`, `var v = func(){}`),
// or nil.
func boundLocal(fn Func, lit *ast.FuncLit, parent ast.Node) *types.Var {
	switch p := parent.(type) {
	case *ast.AssignStmt:
		if len(p.Lhs) != len(p.Rhs) {
			return nil
		}
		for i, rhs := range p.Rhs {
			if rhs != lit {
				continue
			}
			id, ok := p.Lhs[i].(*ast.Ident)
			if !ok {
				return nil
			}
			v, _ := objOf(fn, id).(*types.Var)
			return v
		}
	case *ast.ValueSpec:
		for i, rhs := range p.Values {
			if rhs != lit || i >= len(p.Names) {
				continue
			}
			v, _ := fn.Info.Defs[p.Names[i]].(*types.Var)
			return v
		}
	}
	return nil
}

// callOnlyUses reports whether every use of v inside fn is as the
// function being called (or as the left-hand side of a literal
// rebinding) — the shape that keeps a closure non-escaping.
func callOnlyUses(fn Func, v *types.Var, parent map[ast.Node]ast.Node) bool {
	ok := true
	ast.Inspect(fn.Decl, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || !ok {
			return ok
		}
		if fn.Info.Uses[id] != v && fn.Info.Defs[id] != types.Object(v) {
			return true
		}
		switch p := parent[id].(type) {
		case *ast.CallExpr:
			if p.Fun == id {
				return true
			}
		case *ast.AssignStmt:
			for i, lhs := range p.Lhs {
				if lhs == id && i < len(p.Rhs) {
					if _, isLit := p.Rhs[i].(*ast.FuncLit); isLit {
						return true
					}
				}
			}
		case *ast.ValueSpec:
			return true // the declaration itself
		}
		ok = false
		return false
	})
	return ok
}

func objOf(fn Func, id *ast.Ident) types.Object {
	if o := fn.Info.Uses[id]; o != nil {
		return o
	}
	return fn.Info.Defs[id]
}
