package flow_test

// These tests pin the per-function summary facts — allocation effects,
// spawns and termination signals — on the flowfix fixture package,
// independent of the
// analyzers that consume them. The fixture is parsed and type-checked
// directly (one file, stdlib imports only), with a static-callee
// resolver mirroring the one internal/analysis supplies.

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sync"
	"testing"

	"aurora/internal/analysis/flow"
)

var (
	fixOnce sync.Once
	fixSet  *flow.Set
	fixErr  error
)

func fixture(t *testing.T) *flow.Set {
	t.Helper()
	fixOnce.Do(func() {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, filepath.Join("testdata", "flowfix.go"), nil, parser.ParseComments)
		if err != nil {
			fixErr = err
			return
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
		if _, err := conf.Check("flowfix", fset, []*ast.File{file}, info); err != nil {
			fixErr = err
			return
		}
		var funcs []flow.Func
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			funcs = append(funcs, flow.Func{Obj: fn, Decl: fd, Info: info})
		}
		fixSet = flow.Build(funcs, func(_ flow.Func, call *ast.CallExpr) []*types.Func {
			return staticCallees(info, call)
		})
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fixSet
}

// staticCallees resolves direct function, concrete-method and qualified
// (pkg.Func) calls, like Facts.resolveCallees without interface fan-out.
func staticCallees(info *types.Info, call *ast.CallExpr) []*types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return []*types.Func{fn}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			if m, ok := sel.Obj().(*types.Func); ok {
				return []*types.Func{m}
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return []*types.Func{fn}
		}
	}
	return nil
}

// summary finds the fixture function's summary by name.
func summary(t *testing.T, name string) *flow.Summary {
	t.Helper()
	for _, sum := range fixture(t).Summaries() {
		if sum.Fn.Name() == name {
			return sum
		}
	}
	t.Fatalf("no summary for %q", name)
	return nil
}

func TestAllocKinds(t *testing.T) {
	tests := []struct {
		fn   string
		want []flow.AllocKind
	}{
		{"MakeMap", []flow.AllocKind{flow.AllocMake}},
		{"Grow", []flow.AllocKind{flow.AllocAppend}},
		{"Box", []flow.AllocKind{flow.AllocBoxing}},
		{"Convert", []flow.AllocKind{flow.AllocConvert}},
		{"Concat", []flow.AllocKind{flow.AllocStringConcat}},
		{"RangeMap", []flow.AllocKind{flow.AllocMapRange}},
		{"CallsMake", nil},
		{"Pure", nil},
		{"Leak", nil},
	}
	for _, tc := range tests {
		t.Run(tc.fn, func(t *testing.T) {
			sum := summary(t, tc.fn)
			var got []flow.AllocKind
			for _, a := range sum.Allocs {
				got = append(got, a.Kind)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("allocs = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("alloc %d = %v, want %v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

func TestTransitiveAllocs(t *testing.T) {
	tests := []struct {
		fn   string
		want bool
	}{
		{"MakeMap", true},   // direct
		{"CallsMake", true}, // only through MakeMap
		{"Pure", false},
		{"Keep", false},
	}
	for _, tc := range tests {
		t.Run(tc.fn, func(t *testing.T) {
			if got := summary(t, tc.fn).AllocsTransitive; got != tc.want {
				t.Errorf("AllocsTransitive = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestSpawnSignals(t *testing.T) {
	tests := []struct {
		fn      string
		spawns  int
		wantSig flow.Signal // bits that must be present; 0 means none at all
	}{
		{"Spinner", 1, 0},
		{"WatchCtx", 1, flow.SigContext},
		{"Tracked", 1, flow.SigWaitGroup},
		{"Run", 1, flow.SigChanRecv}, // transitive, through loop
		{"Pure", 0, 0},
	}
	for _, tc := range tests {
		t.Run(tc.fn, func(t *testing.T) {
			sum := summary(t, tc.fn)
			if len(sum.Spawns) != tc.spawns {
				t.Fatalf("got %d spawns, want %d", len(sum.Spawns), tc.spawns)
			}
			if tc.spawns == 0 {
				return
			}
			sig := sum.Spawns[0].Signal()
			if tc.wantSig == 0 {
				if sig != 0 {
					t.Errorf("Signal() = %v, want none", sig)
				}
				return
			}
			if sig&tc.wantSig == 0 {
				t.Errorf("Signal() = %v, missing %v", sig, tc.wantSig)
			}
		})
	}
}
