// Package flow is the interprocedural dataflow layer under
// internal/analysis: a lightweight def-use IR over the already
// type-checked ASTs. For every declared function it computes a Summary —
// direct allocation sites, goroutines spawned and termination signals
// — then propagates the transitive facts (allocation effects, signal
// reachability) across the static call graph to a fixpoint, so the
// analyzers built on top (allochot, goroleak) reason about whole call
// trees spanning packages, not single bodies.
//
// The package deliberately depends only on go/ast and go/types: the
// caller (internal/analysis) supplies the parsed functions and a callee
// resolver, keeping the layering acyclic. Precision trade-offs are
// documented per fact in DESIGN.md §13.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// AllocKind classifies one direct allocation (or allocation-like) site.
type AllocKind int

// The allocation classes allochot reports. They are deliberately
// conservative: a value composite literal is free, but &T{}, map/slice
// literals, escaping closures and interface boxing are charged even
// where the compiler's own escape analysis might stack-allocate them.
const (
	AllocMake         AllocKind = iota + 1 // make(map/slice/chan)
	AllocNew                               // new(T)
	AllocComposite                         // &T{...}, or a map/slice literal
	AllocAppend                            // append may grow its backing array
	AllocCall                              // call into allocating stdlib (fmt, errors, ...)
	AllocConvert                           // string<->[]byte/[]rune conversion
	AllocBoxing                            // concrete value boxed into an interface
	AllocClosure                           // escaping func literal captures its frame
	AllocMapRange                          // map iteration: hidden iterator, random order
	AllocGoStmt                            // go statement allocates a goroutine stack
	AllocDefer                             // defer frame (heap-allocated in loops)
	AllocStringConcat                      // string + string builds a new string
	AllocOpaqueCall                        // call through an unresolved function value
)

// String names the allocation class for diagnostics and tests.
func (k AllocKind) String() string {
	switch k {
	case AllocMake:
		return "make"
	case AllocNew:
		return "new"
	case AllocComposite:
		return "composite"
	case AllocAppend:
		return "append"
	case AllocCall:
		return "call"
	case AllocConvert:
		return "convert"
	case AllocBoxing:
		return "boxing"
	case AllocClosure:
		return "closure"
	case AllocMapRange:
		return "maprange"
	case AllocGoStmt:
		return "go"
	case AllocDefer:
		return "defer"
	case AllocStringConcat:
		return "concat"
	case AllocOpaqueCall:
		return "opaque-call"
	default:
		return "alloc?"
	}
}

// Alloc is one direct allocation site inside a function body.
type Alloc struct {
	Pos  token.Pos
	Kind AllocKind
	What string // detail: the callee, the boxed type, the converted type...
}

// Signal is a bitmask of goroutine termination/completion signals.
type Signal uint8

// The signal classes goroleak accepts as evidence that a goroutine's
// lifetime is bounded or observable.
const (
	SigChanRecv  Signal = 1 << iota // receives from a channel (incl. select, range)
	SigChanSend                     // sends a value (completion handoff)
	SigChanClose                    // closes a done channel
	SigWaitGroup                    // sync.WaitGroup Done/Wait
	SigContext                      // consults a context.Context
	SigParPool                      // runs under the internal/par bounded pool
)

// String renders the set, e.g. "chan-recv|waitgroup"; "none" when empty.
func (s Signal) String() string {
	if s == 0 {
		return "none"
	}
	names := []struct {
		bit  Signal
		name string
	}{
		{SigChanRecv, "chan-recv"}, {SigChanSend, "chan-send"},
		{SigChanClose, "chan-close"}, {SigWaitGroup, "waitgroup"},
		{SigContext, "context"}, {SigParPool, "par-pool"},
	}
	var parts []string
	for _, n := range names {
		if s&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, "|")
}

// Spawn is one `go` statement: where, what it runs, and the termination
// signals provable for the spawned goroutine. For a spawned function
// literal, Direct holds the signals found lexically inside the literal
// and Callees the calls made from it; for `go f(...)`, Callees is the
// resolved f and Direct is empty. Signal() joins both with the callees'
// transitive signals after the fixpoint.
type Spawn struct {
	Pos     token.Pos
	Callees []*types.Func
	Direct  Signal
	What    string // display name of the spawned function, or "func literal"

	set *Set
}

// Signal returns every termination signal provable for the spawned
// goroutine: lexical signals of the spawned literal plus the transitive
// signals of everything it (or the spawned function) calls.
func (sp *Spawn) Signal() Signal {
	s := sp.Direct
	for _, fn := range sp.Callees {
		if sum := sp.set.Summary(fn); sum != nil {
			s |= sum.Transitive
		}
	}
	return s
}

// Summary is the per-function node of the dataflow IR.
type Summary struct {
	Fn   *types.Func
	Decl *ast.FuncDecl

	// Allocation effects. Allocs lists the direct sites in source order;
	// AllocsTransitive reports whether this function or anything it
	// (synchronously) calls inside the module allocates.
	Allocs           []Alloc
	AllocsTransitive bool

	// Goroutine facts. Spawns lists the `go` statements; Direct the
	// termination signals lexically in this body (excluding nested go
	// subtrees, which belong to the spawned goroutine); Transitive adds
	// the signals of every synchronous callee, to a fixpoint.
	Spawns     []*Spawn
	Direct     Signal
	Transitive Signal

	// calls are the deduplicated synchronous static callees (calls under
	// a go statement excluded) — the edges the fixpoint runs over.
	calls []*types.Func
}

// Func is one input function: its object, declaration and the
// type-checker results of its package.
type Func struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Info *types.Info
}

// Set holds the summaries of one module, after fixpoint propagation.
type Set struct {
	summaries map[*types.Func]*Summary
	order     []*Summary
	lit       map[*ast.FuncDecl]*litFacts
}

// Summary returns fn's summary, or nil for functions outside the
// analyzed set (stdlib, function values).
func (s *Set) Summary(fn *types.Func) *Summary { return s.summaries[fn] }

// Summaries returns every summary in source order.
func (s *Set) Summaries() []*Summary { return s.order }

// Build computes all summaries and runs the fixpoints. resolve maps a
// call expression inside fn to its static callees (nil for calls of
// function values) — internal/analysis passes its fact-store resolver.
func Build(funcs []Func, resolve func(fn Func, call *ast.CallExpr) []*types.Func) *Set {
	s := &Set{
		summaries: make(map[*types.Func]*Summary, len(funcs)),
		lit:       make(map[*ast.FuncDecl]*litFacts),
	}
	for _, f := range funcs {
		if f.Decl == nil || f.Decl.Body == nil || f.Obj == nil {
			continue
		}
		w := &walker{fn: f, resolve: resolve, set: s}
		sum := w.run()
		s.summaries[f.Obj] = sum
		s.order = append(s.order, sum)
	}
	sort.Slice(s.order, func(i, j int) bool { return s.order[i].Decl.Pos() < s.order[j].Decl.Pos() })
	s.fixpoint()
	return s
}

// fixpoint propagates AllocsTransitive and Transitive signals over the
// synchronous call edges until nothing changes. Both facts are monotone
// bits, so iteration terminates in at most lattice-height passes.
func (s *Set) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, sum := range s.order {
			allocs := sum.AllocsTransitive
			sig := sum.Transitive
			for _, callee := range sum.calls {
				if c := s.summaries[callee]; c != nil {
					allocs = allocs || c.AllocsTransitive
					sig |= c.Transitive
				}
			}
			if allocs != sum.AllocsTransitive || sig != sum.Transitive {
				sum.AllocsTransitive = allocs
				sum.Transitive = sig
				changed = true
			}
		}
	}
}

// walker computes one function's direct summary.
type walker struct {
	fn      Func
	resolve func(fn Func, call *ast.CallExpr) []*types.Func
	set     *Set

	sum      *Summary
	seenCall map[*types.Func]bool
	goDepth  int
}

func (w *walker) run() *Summary {
	w.sum = &Summary{
		Fn:               w.fn.Obj,
		Decl:             w.fn.Decl,
		AllocsTransitive: false,
	}
	w.seenCall = make(map[*types.Func]bool)
	w.walk(w.fn.Decl.Body)
	w.sum.AllocsTransitive = len(w.sum.Allocs) > 0
	w.sum.Transitive = w.sum.Direct
	return w.sum
}

func (w *walker) alloc(pos token.Pos, kind AllocKind, what string) {
	w.sum.Allocs = append(w.sum.Allocs, Alloc{Pos: pos, Kind: kind, What: what})
}

func (w *walker) signal(sig Signal) {
	if w.goDepth == 0 {
		w.sum.Direct |= sig
	}
}

// walk visits one statement/expression tree, keeping track of whether we
// are under a `go` statement (signals below one belong to the spawned
// goroutine, and calls below one are not synchronous call edges).
func (w *walker) walk(n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			w.spawn(n)
			w.alloc(n.Pos(), AllocGoStmt, "")
			// Walk the subtree with goDepth raised: allocation sites are
			// still recorded, but signals and call edges below belong to
			// the spawned goroutine, not this function.
			w.goDepth++
			w.walkGoSubtree(n)
			w.goDepth--
			return false
		case *ast.DeferStmt:
			w.alloc(n.Pos(), AllocDefer, "")
			return true
		case *ast.SendStmt:
			w.signal(SigChanSend)
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.signal(SigChanRecv)
			}
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					w.alloc(n.Pos(), AllocComposite, typeString(w.typeOf(lit)))
				}
			}
			return true
		case *ast.RangeStmt:
			switch w.typeOf(n.X).(type) {
			case *types.Chan:
				w.signal(SigChanRecv)
			case *types.Map:
				w.alloc(n.Pos(), AllocMapRange, "")
			}
			return true
		case *ast.AssignStmt:
			// Boxing through plain assignment to an interface-typed
			// variable (x = v where x is an interface). := never boxes:
			// the new variable takes the concrete type.
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					if w.boxes(rhs, w.typeOf(n.Lhs[i])) {
						w.alloc(rhs.Pos(), AllocBoxing, typeString(w.typeOf(rhs)))
					}
				}
			}
			return true
		case *ast.ValueSpec:
			// var x Iface = v with an explicit interface type.
			if n.Type != nil {
				for _, rhs := range n.Values {
					if w.boxes(rhs, w.typeOf(n.Type)) {
						w.alloc(rhs.Pos(), AllocBoxing, typeString(w.typeOf(rhs)))
					}
				}
			}
			return true
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(w.typeOf(n)) && !w.isConstant(n) {
				w.alloc(n.Pos(), AllocStringConcat, "")
			}
			return true
		case *ast.CompositeLit:
			w.composite(n)
			return true
		case *ast.FuncLit:
			// Walked in place: the literal body is lexically part of this
			// function, so its allocs/atomics are attributed here. Escaping
			// literals are additionally charged as closure allocations.
			if w.set.lits(w.fn).escaping[n] {
				w.alloc(n.Pos(), AllocClosure, "")
			}
			return true
		case *ast.CallExpr:
			w.call(n)
			return true
		}
		return true
	})
}

// walkGoSubtree records spawned-goroutine content (alloc sites, nested
// spawns) without contributing signals or synchronous call edges. A
// spawned literal's body is walked directly so the literal itself is not
// double-charged as a closure on top of the AllocGoStmt.
func (w *walker) walkGoSubtree(g *ast.GoStmt) {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		w.walk(lit.Body)
	} else {
		w.walk(g.Call.Fun)
	}
	for _, arg := range g.Call.Args {
		w.walk(arg)
	}
}

// spawn records one `go` statement.
func (w *walker) spawn(g *ast.GoStmt) {
	sp := &Spawn{Pos: g.Pos(), set: w.set, What: "func literal"}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		// Signals lexically in the literal body, and the calls it makes.
		inner := &walker{fn: w.fn, resolve: w.resolve, set: w.set}
		inner.sum = &Summary{Fn: w.fn.Obj, Decl: w.fn.Decl}
		inner.seenCall = make(map[*types.Func]bool)
		inner.walk(lit.Body)
		sp.Direct = inner.sum.Direct
		sp.Callees = inner.sum.calls
	} else {
		sp.Callees = w.resolve(w.fn, g.Call)
		if len(sp.Callees) > 0 {
			sp.What = funcDisplayName(sp.Callees[0])
		} else if name := exprString(g.Call.Fun); name != "" {
			sp.What = name
		}
	}
	w.sum.Spawns = append(w.sum.Spawns, sp)
}

// composite flags heap-bound composite literals: map and slice literals
// always, others only when their address is the value produced (&T{}).
// Value struct/array literals are register/stack material and stay free.
func (w *walker) composite(lit *ast.CompositeLit) {
	switch w.typeOf(lit).Underlying().(type) {
	case *types.Map, *types.Slice:
		w.alloc(lit.Pos(), AllocComposite, typeString(w.typeOf(lit)))
	}
}

// call classifies one call expression: builtins, conversions, stdlib
// denylist, boxing of arguments, synchronous call edges, and opaque
// function-value calls.
func (w *walker) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := w.fn.Info.Types[fun]; ok && tv.IsType() {
		// Conversion: only string<->[]byte/[]rune materialize memory.
		if convAllocates(tv.Type, w.argType(call)) {
			w.alloc(call.Pos(), AllocConvert, typeString(tv.Type))
		}
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := w.fn.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				w.alloc(call.Pos(), AllocMake, "")
			case "new":
				w.alloc(call.Pos(), AllocNew, "")
			case "append":
				w.alloc(call.Pos(), AllocAppend, "")
			case "close":
				w.signal(SigChanClose)
			}
			return
		}
	}

	callees := w.resolve(w.fn, call)
	for _, callee := range callees {
		w.noteCallee(call, callee)
	}
	if len(callees) == 0 && !w.isDirectLocalLitCall(fun) {
		// A call through a function value the resolver cannot see:
		// parameters, struct fields, map entries. Charge it as opaque so
		// allochot can refuse to certify the path.
		if _, isLit := fun.(*ast.FuncLit); !isLit {
			if _, isSig := w.typeOf(fun).Underlying().(*types.Signature); isSig {
				w.alloc(call.Pos(), AllocOpaqueCall, exprString(fun))
			}
		}
	}
	w.boxedArgs(call)
}

// noteCallee records the classification of one resolved callee: alloc
// denylist, termination signals, synchronous call edge.
func (w *walker) noteCallee(call *ast.CallExpr, callee *types.Func) {
	if pkg := callee.Pkg(); pkg != nil {
		path := pkg.Path()
		if allocStdlib(path, callee.Name()) {
			w.alloc(call.Pos(), AllocCall, path+"."+callee.Name())
		}
		if path == "internal/par" || strings.HasSuffix(path, "/internal/par") {
			w.signal(SigParPool)
		}
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch recvTypeName(sig.Recv().Type()) {
		case "sync.WaitGroup":
			if callee.Name() == "Done" || callee.Name() == "Wait" {
				w.signal(SigWaitGroup)
			}
		case "context.Context":
			if callee.Name() == "Done" || callee.Name() == "Err" || callee.Name() == "Deadline" {
				w.signal(SigContext)
			}
		}
	}
	// Interface methods: a call on a context.Context interface value has
	// no concrete receiver type above; catch it by package.
	if pkg := callee.Pkg(); pkg != nil && pkg.Path() == "context" {
		if callee.Name() == "Done" || callee.Name() == "Err" || callee.Name() == "Deadline" {
			w.signal(SigContext)
		}
	}
	if w.goDepth == 0 && !w.seenCall[callee] {
		w.seenCall[callee] = true
		w.sum.calls = append(w.sum.calls, callee)
	}
}

// boxedArgs flags concrete values boxed into interface-typed parameters.
func (w *walker) boxedArgs(call *ast.CallExpr) {
	sig, ok := w.typeOf(call.Fun).Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var target types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				target = sl.Elem()
			}
		case i < sig.Params().Len():
			target = sig.Params().At(i).Type()
		}
		if w.boxes(arg, target) {
			w.alloc(arg.Pos(), AllocBoxing, typeString(w.typeOf(arg)))
		}
	}
}

// boxes reports whether assigning arg to a target of type target boxes a
// concrete value into an interface.
func (w *walker) boxes(arg ast.Expr, target types.Type) bool {
	if target == nil {
		return false
	}
	if _, ok := target.Underlying().(*types.Interface); !ok {
		return false
	}
	at := w.typeOf(arg)
	if at == nil {
		return false
	}
	if _, ok := at.Underlying().(*types.Interface); ok {
		return false // interface-to-interface, no box
	}
	if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	if _, ok := at.Underlying().(*types.Pointer); ok {
		return false // pointers box without copying the pointee
	}
	return !w.isConstant(arg)
}

func (w *walker) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.fn.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (w *walker) argType(call *ast.CallExpr) types.Type {
	if len(call.Args) != 1 {
		return nil
	}
	return w.typeOf(call.Args[0])
}

func (w *walker) isConstant(e ast.Expr) bool {
	tv, ok := w.fn.Info.Types[e]
	return ok && tv.Value != nil
}

// isDirectLocalLitCall reports whether fun is an identifier bound to a
// function literal declared in this function and only ever called — the
// `consider := func(...) {...}; consider(k)` pattern the hot search
// uses, which the compiler keeps on the stack.
func (w *walker) isDirectLocalLitCall(fun ast.Expr) bool {
	id, ok := fun.(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := w.fn.Info.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	return w.set.lits(w.fn).callOnly[obj]
}

// --- shared helpers ---

// convAllocates reports whether converting from -> to copies memory:
// string <-> []byte / []rune in either direction.
func convAllocates(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	return (isString(to) && isByteOrRuneSlice(from)) || (isByteOrRuneSlice(to) && isString(from))
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// allocStdlib is the audited denylist of standard-library calls that
// allocate on every invocation. Stdlib calls outside it are assumed
// allocation-free on the hot path (math, sort.Search, atomic methods);
// the list errs toward the formatting/string-building families the hot
// paths must never touch.
func allocStdlib(path, name string) bool {
	switch path {
	case "fmt":
		return true
	case "errors":
		return name == "New" || name == "Join"
	case "strings":
		switch name {
		case "Join", "Repeat", "Replace", "ReplaceAll", "Split", "SplitN",
			"SplitAfter", "Fields", "Map", "ToUpper", "ToLower", "Clone", "Title":
			return true
		}
	case "strconv":
		switch name {
		case "Itoa", "FormatInt", "FormatUint", "FormatFloat", "FormatBool", "Quote":
			return true
		}
	case "sort":
		switch name {
		case "Slice", "SliceStable", "Sort", "Stable", "Strings", "Ints", "Float64s":
			return true
		}
	}
	return false
}

// recvTypeName renders a receiver type as "pkg.Name", peeling pointers.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// funcDisplayName renders a function for diagnostics: "pkg.Func" or
// "(pkg.T).Method".
func funcDisplayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return "(" + recvTypeName(sig.Recv().Type()) + ")." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// exprString renders simple call targets (idents and selector chains)
// for diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		if base := exprString(e.X); base != "" {
			return base + "." + e.Sel.Name
		}
		return e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	}
	return ""
}

func typeString(t types.Type) string {
	if t == nil {
		return ""
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
