package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// The wrapcheck analyzer: an error value formatted into fmt.Errorf must
// use the %w verb. Formatting an error with %v (or %s) flattens it to
// text — errors.Is/As stop seeing the chain, so the retry classifiers
// (client.TransientRPC, the fsck/invariant sentinels) silently
// misclassify wrapped transport errors as permanent. Returning a typed
// error instead of fmt.Errorf is fine and not flagged; deliberately
// breaking a chain is annotated //lint:ignore wrapcheck <why>.

// checkWrapCheck scans every fmt.Errorf call with a constant format.
func (r *Runner) checkWrapCheck(pkg *Package) {
	errType := types.Universe.Lookup("error").Type()
	errIface := errType.Underlying().(*types.Interface)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Errorf" {
				return true
			}
			ident, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			if pkgName, ok := pkg.Info.Uses[ident].(*types.PkgName); !ok || pkgName.Imported().Path() != "fmt" {
				return true
			}
			tv, ok := pkg.Info.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true
			}
			verbs := formatVerbs(constant.StringVal(tv.Value))
			for i, verb := range verbs {
				argIdx := 1 + i
				if argIdx >= len(call.Args) || verb == 'w' {
					continue
				}
				arg := call.Args[argIdx]
				t := pkg.Info.TypeOf(arg)
				if t == nil {
					continue
				}
				if !types.Identical(t, errType) && !types.Implements(t, errIface) {
					continue
				}
				r.report(arg.Pos(), RuleWrapCheck,
					"error flattened by %%%c in fmt.Errorf; use %%w (or return a typed error) so errors.Is/As and retry classification keep seeing the chain",
					verb)
			}
			return true
		})
	}
}

// formatVerbs returns, per consumed argument, the verb that formats it.
// Width/precision stars consume an argument and are recorded as '*'.
// %% consumes nothing. The scanner covers the fmt subset this codebase
// uses; an exotic format just yields fewer recorded verbs (never a
// false positive, since unmatched arguments are skipped).
func formatVerbs(format string) []rune {
	var verbs []rune
	runes := []rune(format)
	for i := 0; i < len(runes); i++ {
		if runes[i] != '%' {
			continue
		}
		i++
		// Flags.
		for i < len(runes) {
			switch runes[i] {
			case '+', '-', '#', ' ', '0', '\'':
				i++
				continue
			}
			break
		}
		// Width.
		if i < len(runes) && runes[i] == '*' {
			verbs = append(verbs, '*')
			i++
		} else {
			for i < len(runes) && runes[i] >= '0' && runes[i] <= '9' {
				i++
			}
		}
		// Precision.
		if i < len(runes) && runes[i] == '.' {
			i++
			if i < len(runes) && runes[i] == '*' {
				verbs = append(verbs, '*')
				i++
			} else {
				for i < len(runes) && runes[i] >= '0' && runes[i] <= '9' {
					i++
				}
			}
		}
		if i >= len(runes) {
			break
		}
		if runes[i] == '%' {
			continue // %% literal, no argument
		}
		verbs = append(verbs, runes[i])
	}
	return verbs
}
