// The protoconform pass checks the implementation's MsgType→handler
// dispatch state machine against a machine-readable encoding of the
// DESIGN.md §15 frame tables. The §15 spec is normative prose; this
// file is its executable form:
//
//   - §15.1 every request MsgType has exactly one handler per role;
//     stream-opening types are only dispatched by stream handlers
//     (proto.ServeStreams) and control requests never are;
//   - §15.1 every chunk consumer verifies proto.ChunkChecksum before
//     accepting a chunk, and every chunk producer stamps it;
//   - §15.4 head-durable ordering: the write handler stores the block
//     and reports proto.MsgBlockReceived before the commit (the stream
//     ack);
//   - §15.5 report escalation: whoever sends proto.MsgHeartbeatDelta
//     reads the response's FullReport flag and can set FullReport on a
//     request (a full report); whoever handles the report can set it on
//     the response.
//
// The checks are name-anchored (const names, field names, method
// names) rather than identity-anchored so fixture mirrors of the
// protocol exercise the same logic the real module is audited with.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The §15 role tables. Only constants the audited proto package
// actually defines are required, so partial protocol mirrors check the
// slice of the spec they implement.
var (
	protoControlRequests = []string{
		"MsgCreateFile", "MsgAddBlock", "MsgCompleteFile", "MsgGetLocations",
		"MsgSetRepl", "MsgDeleteFile", "MsgListFiles", "MsgStatFile",
		"MsgClusterInfo", "MsgFsck", "MsgDecommission",
		"MsgRegister", "MsgHeartbeatDelta", "MsgBlockReceived",
	}
	protoStreamRequests = []string{"MsgWriteBlockStream", "MsgReadBlockStream"}
)

func inNames(names []string, s string) bool {
	for _, n := range names {
		if n == s {
			return true
		}
	}
	return false
}

// protoWorld is everything the pass resolves once from the audited
// proto package.
type protoWorld struct {
	pkg      *types.Package
	message  *types.TypeName // proto.Message
	stream   *types.TypeName // proto.BlockStream
	checksum *types.Func     // proto.ChunkChecksum
}

func (r *Runner) findProtoWorld() *protoWorld {
	for _, pkg := range r.pkgs {
		if !pathHasSuffix(pkg.Types, "internal/dfs/proto") {
			continue
		}
		w := &protoWorld{pkg: pkg.Types}
		scope := pkg.Types.Scope()
		if tn, ok := scope.Lookup("Message").(*types.TypeName); ok {
			w.message = tn
		}
		if tn, ok := scope.Lookup("BlockStream").(*types.TypeName); ok {
			w.stream = tn
		}
		if fn, ok := scope.Lookup("ChunkChecksum").(*types.Func); ok {
			w.checksum = fn
		}
		if w.message == nil {
			return nil
		}
		return w
	}
	return nil
}

// defines reports whether the audited proto package declares the const.
func (w *protoWorld) defines(name string) bool {
	_, ok := w.pkg.Scope().Lookup(name).(*types.Const)
	return ok
}

// isMessage reports t == proto.Message or *proto.Message.
func (w *protoWorld) isMessage(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() == w.message
}

// isStream reports t == proto.BlockStream.
func (w *protoWorld) isStream(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && w.stream != nil && named.Obj() == w.stream
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// handlerShaped matches proto.Handler: func(*Message, []byte) (*Message, []byte).
func (w *protoWorld) handlerShaped(sig *types.Signature) bool {
	p, res := sig.Params(), sig.Results()
	return p.Len() == 2 && res.Len() == 2 &&
		w.isMessage(p.At(0).Type()) && isByteSlice(p.At(1).Type()) &&
		w.isMessage(res.At(0).Type()) && isByteSlice(res.At(1).Type())
}

// streamShaped matches proto.StreamHandler: any signature taking a
// BlockStream (the opening-frame conversation owner).
func (w *protoWorld) streamShaped(sig *types.Signature) bool {
	p := sig.Params()
	for i := 0; i < p.Len(); i++ {
		if w.isStream(p.At(i).Type()) {
			return true
		}
	}
	return false
}

// msgConstName resolves an expression (proto.MsgX or MsgX) to a Msg*
// constant of the audited proto package.
func (w *protoWorld) msgConstName(info *types.Info, e ast.Expr) string {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return ""
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || c.Pkg() != w.pkg || len(c.Name()) < 4 || c.Name()[:3] != "Msg" {
		return ""
	}
	return c.Name()
}

// dispCase is one `case proto.MsgX:` of a dispatch switch.
type dispCase struct {
	name string
	pos  token.Pos
	body []ast.Stmt
}

// dispSwitch is one `switch req.Type {...}` inside a handler- or
// stream-shaped function.
type dispSwitch struct {
	fi     *FuncInfo
	pos    token.Pos
	stream bool
	cases  []dispCase
}

// checkProtoConform runs every §15 conformance check.
func (r *Runner) checkProtoConform() {
	w := r.findProtoWorld()
	if w == nil {
		return
	}
	byObj := make(map[*types.Func]*FuncInfo, len(r.facts.FuncList))
	for _, fi := range r.facts.FuncList {
		byObj[fi.Obj] = fi
	}
	pc := &protoChecker{r: r, w: w, byObj: byObj,
		msgLits: map[*FuncInfo]map[string]token.Pos{},
		conMemo: map[*FuncInfo]map[string]bool{},
		setMemo: map[*FuncInfo]bool{},
	}

	var switches []*dispSwitch
	for _, fi := range r.facts.FuncList {
		switches = append(switches, pc.dispatchesOf(fi)...)
	}
	pc.checkDispatch(switches)
	for _, fi := range r.facts.FuncList {
		pc.checkChunkPaths(fi)
		pc.checkDeltaSender(fi)
	}
}

type protoChecker struct {
	r       *Runner
	w       *protoWorld
	byObj   map[*types.Func]*FuncInfo
	msgLits map[*FuncInfo]map[string]token.Pos
	conMemo map[*FuncInfo]map[string]bool
	setMemo map[*FuncInfo]bool
}

// dispatchesOf finds the MsgType dispatch switches of one function.
func (pc *protoChecker) dispatchesOf(fi *FuncInfo) []*dispSwitch {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok || fi.Decl == nil || fi.Decl.Body == nil {
		return nil
	}
	isHandler := pc.w.handlerShaped(sig)
	isStream := pc.w.streamShaped(sig)
	if !isHandler && !isStream {
		return nil
	}
	info := fi.Pkg.Info
	var out []*dispSwitch
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		sel, ok := ast.Unparen(sw.Tag).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Type" {
			return true
		}
		if tv, ok := info.Types[sel.X]; !ok || !pc.w.isMessage(tv.Type) {
			return true
		}
		ds := &dispSwitch{fi: fi, pos: sw.Pos(), stream: isStream}
		for _, c := range sw.Body.List {
			cc, ok := c.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, e := range cc.List {
				if name := pc.w.msgConstName(info, e); name != "" {
					ds.cases = append(ds.cases, dispCase{name: name, pos: e.Pos(), body: cc.Body})
				}
			}
		}
		out = append(out, ds)
		return true
	})
	return out
}

// checkDispatch enforces §15.1 handler uniqueness/completeness (P1),
// stream/control separation (P2), §15.4 head-durable ordering on the
// write case (P4), and §15.5 delta handling (P5b).
func (pc *protoChecker) checkDispatch(switches []*dispSwitch) {
	// Uniqueness is per package and plane: two one-shot dispatchers in
	// one package both claiming a type is a real conflict; a one-shot
	// and a stream dispatcher never race for the same opening frame.
	type planeKey struct {
		pkg    *Package
		stream bool
	}
	firstCase := map[planeKey]map[string]token.Pos{}

	for _, ds := range switches {
		key := planeKey{ds.fi.Pkg, ds.stream}
		if firstCase[key] == nil {
			firstCase[key] = map[string]token.Pos{}
		}
		seen := firstCase[key]

		var required []string
		if ds.stream {
			required = protoStreamRequests
		} else {
			for _, c := range ds.cases {
				if inNames(protoControlRequests, c.name) {
					required = protoControlRequests
					break
				}
			}
		}

		handled := map[string]bool{}
		for _, c := range ds.cases {
			handled[c.name] = true

			// P2: plane separation.
			isStreamType := inNames(protoStreamRequests, c.name)
			if isStreamType && !ds.stream {
				pc.r.report(c.pos, RuleProtoConform,
					"stream-opening proto.%s dispatched by one-shot handler %s; stream openings must go through proto.ServeStreams (DESIGN.md §15.1)",
					c.name, funcInfoName(ds.fi))
			}
			if ds.stream && inNames(protoControlRequests, c.name) {
				pc.r.report(c.pos, RuleProtoConform,
					"control request proto.%s dispatched by stream handler %s; it belongs on the request/response plane (DESIGN.md §15.1)",
					c.name, funcInfoName(ds.fi))
			}

			// P1: one handler per type per plane.
			if isStreamType == ds.stream {
				if prev, dup := seen[c.name]; dup {
					pc.r.report(c.pos, RuleProtoConform,
						"proto.%s is dispatched more than once (first at %s) (DESIGN.md §15.1: every request MsgType has exactly one handler)",
						c.name, pc.r.shortPos(prev))
				} else {
					seen[c.name] = c.pos
				}
			}

			// P4: head-durable ordering on the write path.
			if c.name == "MsgWriteBlockStream" && ds.stream {
				pc.checkHeadDurable(ds, c)
			}

			// P5b: the delta handler must be able to demand a full report.
			if c.name == "MsgHeartbeatDelta" && !ds.stream {
				if !pc.caseSetsFullReport(ds, c) {
					pc.r.report(c.pos, RuleProtoConform,
						"proto.MsgHeartbeatDelta handler never sets FullReport on its response; divergence could never escalate to a resync (DESIGN.md §15.5)")
				}
			}
		}

		// P1: completeness for the roles this dispatcher participates in.
		for _, name := range required {
			if !handled[name] && pc.w.defines(name) {
				pc.r.report(ds.pos, RuleProtoConform,
					"dispatcher %s handles no case for proto.%s (DESIGN.md §15.1: every request MsgType has exactly one handler)",
					funcInfoName(ds.fi), name)
			}
		}
	}
}

// caseHandlers returns the functions a dispatch case may run: the
// same-package callees named directly in the case body, plus the
// dispatcher itself (for inline handling).
func (pc *protoChecker) caseHandlers(ds *dispSwitch, c dispCase) []*FuncInfo {
	out := []*FuncInfo{ds.fi}
	for _, stmt := range c.body {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, callee := range pc.r.facts.resolveCallees(ds.fi.Pkg, call) {
				if fi, ok := pc.byObj[callee]; ok {
					out = append(out, fi)
				}
			}
			return true
		})
	}
	return out
}

// checkHeadDurable enforces §15.4 on the write case: the handler that
// owns the commit anchor (the MsgStreamAck literal) must store the block
// (a Put call) and report proto.MsgBlockReceived, both lexically before
// the anchor.
func (pc *protoChecker) checkHeadDurable(ds *dispSwitch, c dispCase) {
	const anchorConst = "MsgStreamAck"
	var h *FuncInfo
	var anchor token.Pos
	for _, fi := range pc.caseHandlers(ds, c) {
		if pos, ok := pc.msgLitsOf(fi)[anchorConst]; ok {
			h, anchor = fi, pos
			break
		}
	}
	if h == nil {
		// No commit anchor found: the handler never acks, so there is
		// no commit to mis-order against.
		return
	}
	putPos := pc.firstPutCall(h)
	reportPos := pc.firstBlockReceivedReport(h)
	switch {
	case !putPos.IsValid():
		pc.r.report(c.pos, RuleProtoConform,
			"write handler %s never stores the block (no store Put call) before the proto.%s commit (DESIGN.md §15.4 head-durable contract)",
			funcInfoName(h), anchorConst)
	case putPos > anchor:
		pc.r.report(putPos, RuleProtoConform,
			"write handler %s stores the block after the proto.%s commit; the local replica must be durable first (DESIGN.md §15.4 head-durable contract)",
			funcInfoName(h), anchorConst)
	}
	switch {
	case !reportPos.IsValid():
		pc.r.report(c.pos, RuleProtoConform,
			"write handler %s never reports proto.MsgBlockReceived to the namenode before the proto.%s commit (DESIGN.md §15.4 head-durable contract)",
			funcInfoName(h), anchorConst)
	case reportPos > anchor:
		pc.r.report(reportPos, RuleProtoConform,
			"write handler %s reports proto.MsgBlockReceived after the proto.%s commit; store-and-report must precede the downstream ack (DESIGN.md §15.4 head-durable contract)",
			funcInfoName(h), anchorConst)
	}
}

// msgLitsOf scans one function for proto.Message composite literals and
// records the first position per Msg* Type constant.
func (pc *protoChecker) msgLitsOf(fi *FuncInfo) map[string]token.Pos {
	if m, ok := pc.msgLits[fi]; ok {
		return m
	}
	m := map[string]token.Pos{}
	pc.msgLits[fi] = m
	if fi.Decl == nil || fi.Decl.Body == nil {
		return m
	}
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		tv, ok := info.Types[lit]
		if !ok || !pc.w.isMessage(tv.Type) {
			return true
		}
		for _, el := range lit.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Type" {
				continue
			}
			if name := pc.w.msgConstName(info, kv.Value); name != "" {
				if _, seen := m[name]; !seen {
					m[name] = lit.Pos()
				}
			}
		}
		return true
	})
	return m
}

// firstPutCall finds the first `.Put(...)` call — the block store write.
func (pc *protoChecker) firstPutCall(fi *FuncInfo) token.Pos {
	for _, site := range fi.Sites {
		if sel, ok := ast.Unparen(site.Call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Put" {
			return site.Call.Pos()
		}
	}
	return token.NoPos
}

// firstBlockReceivedReport finds the first point where fi reports a
// block arrival: a MsgBlockReceived literal of its own, or a call into
// a function that transitively constructs one.
func (pc *protoChecker) firstBlockReceivedReport(fi *FuncInfo) token.Pos {
	if pos, ok := pc.msgLitsOf(fi)["MsgBlockReceived"]; ok {
		return pos
	}
	for _, site := range fi.Sites {
		for _, callee := range site.Callees {
			if sub, ok := pc.byObj[callee]; ok && pc.constructs(sub, "MsgBlockReceived", map[*FuncInfo]bool{}) {
				return site.Call.Pos()
			}
		}
	}
	return token.NoPos
}

// constructs reports whether fi (or any transitive same-module callee)
// builds a proto.Message literal with the given Type constant.
func (pc *protoChecker) constructs(fi *FuncInfo, name string, visiting map[*FuncInfo]bool) bool {
	if m, ok := pc.conMemo[fi]; ok {
		return m[name]
	}
	if visiting[fi] {
		return false
	}
	visiting[fi] = true
	found := false
	if _, ok := pc.msgLitsOf(fi)[name]; ok {
		found = true
	}
	if !found {
	outer:
		for _, site := range fi.Sites {
			for _, callee := range site.Callees {
				if sub, ok := pc.byObj[callee]; ok && pc.constructs(sub, name, visiting) {
					found = true
					break outer
				}
			}
		}
	}
	delete(visiting, fi)
	if pc.conMemo[fi] == nil {
		pc.conMemo[fi] = map[string]bool{}
	}
	pc.conMemo[fi][name] = found
	return found
}

// caseSetsFullReport reports whether a MsgHeartbeatDelta case can set
// the FullReport response flag, directly or through its callees.
func (pc *protoChecker) caseSetsFullReport(ds *dispSwitch, c dispCase) bool {
	for _, fi := range pc.caseHandlers(ds, c) {
		if pc.setsFullReport(fi, map[*FuncInfo]bool{}) {
			return true
		}
	}
	return false
}

func (pc *protoChecker) setsFullReport(fi *FuncInfo, visiting map[*FuncInfo]bool) bool {
	if v, ok := pc.setMemo[fi]; ok {
		return v
	}
	if visiting[fi] || fi.Decl == nil || fi.Decl.Body == nil {
		return false
	}
	visiting[fi] = true
	found := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "FullReport" {
					found = true
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok && key.Name == "FullReport" {
				found = true
			}
		}
		return true
	})
	if !found {
	outer:
		for _, site := range fi.Sites {
			for _, callee := range site.Callees {
				if sub, ok := pc.byObj[callee]; ok && pc.setsFullReport(sub, visiting) {
					found = true
					break outer
				}
			}
		}
	}
	delete(visiting, fi)
	pc.setMemo[fi] = found
	return found
}

// checkChunkPaths enforces §15.1 per-chunk integrity (P3): a function
// that consumes chunk frames (BlockStream.Recv or RecvInto plus a
// MsgChunk type test) or produces them (a MsgChunk literal) must call
// proto.ChunkChecksum.
func (pc *protoChecker) checkChunkPaths(fi *FuncInfo) {
	if fi.Decl == nil || fi.Decl.Body == nil || fi.Pkg.Types == pc.w.pkg {
		return
	}
	info := fi.Pkg.Info
	callsChecksum := false
	for _, site := range fi.Sites {
		for _, callee := range site.Callees {
			if callee == pc.w.checksum {
				callsChecksum = true
			}
		}
	}

	var recvPos, chunkTestPos token.Pos
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && (sel.Sel.Name == "Recv" || sel.Sel.Name == "RecvInto") {
				if tv, ok := info.Types[sel.X]; ok && pc.w.isStream(tv.Type) && !recvPos.IsValid() {
					recvPos = n.Pos()
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				for _, side := range []ast.Expr{n.X, n.Y} {
					if pc.w.msgConstName(info, side) == "MsgChunk" && !chunkTestPos.IsValid() {
						chunkTestPos = n.Pos()
					}
				}
			}
		}
		return true
	})

	if recvPos.IsValid() && chunkTestPos.IsValid() && !callsChecksum {
		pc.r.report(recvPos, RuleProtoConform,
			"chunk consumer %s never verifies proto.ChunkChecksum over received chunks (DESIGN.md §15.1: every receiver verifies the per-chunk CRC before accepting)",
			funcInfoName(fi))
	}
	if pos, ok := pc.msgLitsOf(fi)["MsgChunk"]; ok && !callsChecksum {
		pc.r.report(pos, RuleProtoConform,
			"chunk producer %s builds proto.MsgChunk frames without stamping proto.ChunkChecksum (DESIGN.md §15.1: every chunk carries its CRC)",
			funcInfoName(fi))
	}
}

// checkDeltaSender enforces §15.5 escalation on the sending side (P5a):
// whoever builds a MsgHeartbeatDelta must read the response's
// FullReport flag and be able to set FullReport on a request, directly
// or through its callees — the full report a resync asks for.
func (pc *protoChecker) checkDeltaSender(fi *FuncInfo) {
	if fi.Decl == nil || fi.Decl.Body == nil || fi.Pkg.Types == pc.w.pkg {
		return
	}
	litPos, ok := pc.msgLitsOf(fi)["MsgHeartbeatDelta"]
	if !ok {
		return
	}
	readsFull := false
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if assign, ok := n.(*ast.AssignStmt); ok {
			// Walk only the RHS: writing FullReport is not reading it.
			for _, rhs := range assign.Rhs {
				ast.Inspect(rhs, func(m ast.Node) bool {
					if sel, ok := m.(*ast.SelectorExpr); ok && sel.Sel.Name == "FullReport" {
						readsFull = true
					}
					return true
				})
			}
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "FullReport" {
			readsFull = true
		}
		return true
	})
	if !readsFull {
		pc.r.report(litPos, RuleProtoConform,
			"delta reporter %s never reads the response's FullReport flag; the namenode could never demand a resync (DESIGN.md §15.5)",
			funcInfoName(fi))
	}
	if !pc.setsFullReport(fi, map[*FuncInfo]bool{}) {
		pc.r.report(litPos, RuleProtoConform,
			"delta reporter %s never sets FullReport on a report; it could never send the full report a resync needs (DESIGN.md §15.5)",
			funcInfoName(fi))
	}
}

// funcInfoName renders a function for messages, receiver-qualified
// with the bare type name ("(*DataNode).handleWriteStream").
func funcInfoName(fi *FuncInfo) string {
	sig, ok := fi.Obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fi.Obj.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		t, ptr = p.Elem(), "*"
	}
	name := t.String()
	if named, isNamed := t.(*types.Named); isNamed {
		name = named.Obj().Name()
	}
	return fmt.Sprintf("(%s%s).%s", ptr, name, fi.Obj.Name())
}
