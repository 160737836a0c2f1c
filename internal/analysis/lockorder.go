package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// The lockorder analyzer: potential-deadlock detection by lock-set
// reasoning (RacerD-style, see PAPERS.md). A lock class is a mutex
// identified by its declaration site — the struct type that holds it
// and the field name — so every instance of namenode.NameNode.mu is one
// class. The analyzer walks each function body in source order tracking
// the lexically-held set (Lock acquires, Unlock releases, deferred
// Unlock holds to the end), records an edge L→M whenever M is acquired
// — directly or through the static call graph — while L is held, and
// reports any cycle in the resulting acquisition graph as an
// inconsistent lock order.
//
// Deliberate incompleteness (documented in DESIGN.md §11): function
// literal and go-statement bodies are skipped (a goroutine does not
// inherit its spawner's lock set; a closure may run anywhere), branch
// structure is flattened to source order, and calls through function
// values are unresolved. A self-edge (L→L) is recorded only when both
// acquisitions go through the method's own receiver — recv.mu locked
// while recv.mu is held, directly or via recv.method() calls — which is
// the same instance and, sync mutexes not being reentrant, a certain
// self-deadlock; re-acquiring the class through any other expression is
// almost always a different instance and stays ignored.

// lockClass identifies one mutex by declaration: the struct type
// holding it and the field name ("" for an embedded sync.Mutex).
type lockClass struct {
	typ   *types.Named
	field string
}

func (c lockClass) String() string {
	name := c.field
	if name == "" {
		name = "(embedded mutex)"
	}
	obj := c.typ.Obj()
	return fmt.Sprintf("%s.%s.%s", obj.Pkg().Name(), obj.Name(), name)
}

// lockEdge is one observed acquisition order: to was acquired while
// from was held, first seen at pos.
type lockEdge struct {
	from, to lockClass
	pos      token.Pos
}

// heldLock is one entry of the lexically-held set; self marks a lock
// taken through the enclosing method's own receiver.
type heldLock struct {
	class lockClass
	self  bool
}

// lockCall is a call made while at least one lock was held; self marks
// a method call on the enclosing method's own receiver.
type lockCall struct {
	callees []*types.Func
	held    []heldLock
	self    bool
	pos     token.Pos
}

// acquireSet is what one body takes directly and whom it calls: the
// seed and the edges of a transitive-acquisition fixpoint.
type acquireSet struct {
	locks map[lockClass]bool
	calls []*types.Func // synchronous static callees
}

// lockSummary is the per-function result of the body walk.
type lockSummary struct {
	all   acquireSet // every lock taken, every callee
	self  acquireSet // ... of which through the method's own receiver
	edges []lockEdge // direct held→acquire orderings
	calls []lockCall // calls under a held lock
}

// checkLockOrder builds the module-wide acquisition graph and reports
// cycles.
func (r *Runner) checkLockOrder() {
	sums := make(map[*types.Func]*lockSummary)
	for _, fi := range r.facts.FuncList {
		sums[fi.Obj] = r.lockWalk(fi)
	}

	// Transitive acquisition sets over the call graph (fixpoint): every
	// class a function may take, and the subset it takes on its own
	// receiver through a chain of same-receiver method calls.
	closure := func(pick func(*lockSummary) acquireSet) map[*types.Func]map[lockClass]bool {
		trans := make(map[*types.Func]map[lockClass]bool)
		for fn, s := range sums {
			set := make(map[lockClass]bool)
			for c := range pick(s).locks {
				set[c] = true
			}
			trans[fn] = set
		}
		for changed := true; changed; {
			changed = false
			for _, fi := range r.facts.FuncList {
				set := trans[fi.Obj]
				for _, callee := range pick(sums[fi.Obj]).calls {
					for c := range trans[callee] {
						if !set[c] {
							set[c] = true
							changed = true
						}
					}
				}
			}
		}
		return trans
	}
	trans := closure(func(s *lockSummary) acquireSet { return s.all })
	selfTrans := closure(func(s *lockSummary) acquireSet { return s.self })

	// Edge set: direct edges plus call edges L→(everything the callee
	// may acquire). Keep the lexically first witness per ordered pair.
	first := make(map[[2]lockClass]token.Pos)
	addEdge := func(from, to lockClass, pos token.Pos) {
		if from == to {
			return
		}
		key := [2]lockClass{from, to}
		if at, ok := first[key]; !ok || pos < at {
			first[key] = pos
		}
	}
	for _, fi := range r.facts.FuncList {
		s := sums[fi.Obj]
		for _, e := range s.edges {
			addEdge(e.from, e.to, e.pos)
		}
		for _, call := range s.calls {
			for _, callee := range call.callees {
				for _, held := range call.held {
					for c := range trans[callee] {
						addEdge(held.class, c, call.pos)
					}
					if call.self && held.self && selfTrans[callee][held.class] {
						r.reportRelock(call.pos, held.class)
					}
				}
			}
		}
	}

	// Report every inverted pair (a cycle of length two; longer cycles
	// always contain one once call edges are transitive) exactly once,
	// anchored at the lexically first witness.
	type inversion struct {
		a, b       lockClass
		aPos, bPos token.Pos
	}
	var found []inversion
	for key, pos := range first {
		rev := [2]lockClass{key[1], key[0]}
		revPos, ok := first[rev]
		if !ok {
			continue
		}
		if pos < revPos || (pos == revPos && key[0].String() < key[1].String()) {
			found = append(found, inversion{a: key[0], b: key[1], aPos: pos, bPos: revPos})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].aPos < found[j].aPos })
	for _, inv := range found {
		r.report(inv.aPos, RuleLockOrder,
			"inconsistent lock order: %s acquired while holding %s here, but the reverse order at %s; pick one global acquisition order",
			inv.b, inv.a, r.shortPos(inv.bPos))
	}
}

// reportRelock is the self-edge finding: every site is reported, since
// each one deadlocks on its own.
func (r *Runner) reportRelock(pos token.Pos, c lockClass) {
	r.report(pos, RuleLockOrder,
		"re-lock: %s is acquired here while the same receiver already holds it; sync mutexes are not reentrant, so this self-deadlocks", c)
}

// lockWalk scans one function body in source order, tracking the held
// lock set and recording acquisitions and calls made under it.
func (r *Runner) lockWalk(fi *FuncInfo) *lockSummary {
	s := &lockSummary{
		all:  acquireSet{locks: make(map[lockClass]bool)},
		self: acquireSet{locks: make(map[lockClass]bool)},
	}
	var held []heldLock
	pkg := fi.Pkg

	// onRecv reports whether e is the enclosing method's receiver.
	var recv types.Object
	if fi.Decl.Recv != nil && len(fi.Decl.Recv.List) == 1 && len(fi.Decl.Recv.List[0].Names) == 1 {
		recv = pkg.Info.Defs[fi.Decl.Recv.List[0].Names[0]]
	}
	onRecv := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && recv != nil && pkg.Info.Uses[id] == recv
	}

	release := func(c lockClass) {
		for i, h := range held {
			if h.class == c {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			// Different execution context: no lock inheritance.
			return false
		case *ast.DeferStmt:
			// A deferred Unlock keeps the lock held to the end of the
			// body; other deferred calls are treated as ordinary calls
			// under the current held set.
			if _, _, op, ok := r.mutexOp(pkg, n.Call); ok && (op == "Unlock" || op == "RUnlock") {
				return false
			}
			return true
		case *ast.CallExpr:
			if c, base, op, ok := r.mutexOp(pkg, n); ok {
				switch op {
				case "Lock", "RLock":
					self := onRecv(base)
					s.all.locks[c] = true
					if self {
						s.self.locks[c] = true
					}
					for _, h := range held {
						s.edges = append(s.edges, lockEdge{from: h.class, to: c, pos: n.Pos()})
						if h.class == c && h.self && self {
							r.reportRelock(n.Pos(), c)
						}
					}
					held = append(held, heldLock{class: c, self: self})
				case "Unlock", "RUnlock":
					release(c)
				}
				return false
			}
			callees := r.facts.resolveCallees(pkg, n)
			if len(callees) > 0 {
				s.all.calls = append(s.all.calls, callees...)
				sel, isSel := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				self := isSel && onRecv(sel.X)
				if self {
					s.self.calls = append(s.self.calls, callees...)
				}
				if len(held) > 0 {
					s.calls = append(s.calls, lockCall{
						callees: callees,
						held:    append([]heldLock(nil), held...),
						self:    self,
						pos:     n.Pos(),
					})
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(fi.Decl.Body, walk)
	return s
}

// mutexOp recognizes a Lock/RLock/Unlock/RUnlock call on a struct-field
// or embedded mutex and returns its lock class and the expression of
// the value that owns the mutex.
func (r *Runner) mutexOp(pkg *Package, call *ast.CallExpr) (lockClass, ast.Expr, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockClass{}, nil, "", false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return lockClass{}, nil, "", false
	}
	// The method must come from sync.Mutex / sync.RWMutex.
	obj, ok := pkg.Info.Uses[sel.Sel]
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return lockClass{}, nil, "", false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		// base.field.Lock(): the class is (type of base, field), when
		// the field really is the mutex.
		if _, ok := isMutexType(pkg.Info.TypeOf(x)); ok {
			if named := namedOf(pkg.Info.TypeOf(x.X)); named != nil {
				return lockClass{typ: named, field: x.Sel.Name}, x.X, op, true
			}
		}
		// base.Lock() where base is itself a field of struct type with
		// an embedded mutex: class is (type of base, embedded).
		if named := namedOf(pkg.Info.TypeOf(x)); named != nil && hasEmbeddedMutex(named) {
			return lockClass{typ: named, field: ""}, x, op, true
		}
	case *ast.Ident:
		// recv.Lock() via an embedded mutex.
		if named := namedOf(pkg.Info.TypeOf(x)); named != nil && hasEmbeddedMutex(named) {
			return lockClass{typ: named, field: ""}, x, op, true
		}
	}
	return lockClass{}, nil, "", false
}

// namedOf strips one level of pointer and returns the named type, if
// any.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// hasEmbeddedMutex reports whether the named struct type embeds
// sync.Mutex / sync.RWMutex directly.
func hasEmbeddedMutex(named *types.Named) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Embedded() {
			continue
		}
		if _, ok := isMutexType(f.Type()); ok {
			return true
		}
	}
	return false
}
