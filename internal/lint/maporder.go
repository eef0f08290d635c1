package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags range statements over maps whose body makes iteration
// order observable: writing output (fmt print functions, Write*/Emit*
// methods, calls into the report/obs emitter packages), appending to a
// slice that outlives the loop without a subsequent sort, or calling a
// helper whose chain — arbitrarily deep, across packages — does one of
// those things (the interprocedural HazardEmit summary). Go randomizes map
// iteration order per range, so any of these bakes nondeterminism into
// rendered bytes. The fix is the repo's collect-then-sort idiom — which
// detlint -fix applies mechanically when the loop shape allows — and sites
// where order provably cannot matter carry //detlint:allow maporder(reason).
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flag map iteration that emits output or escapes results in iteration order, " +
		"including through helper chains; sort keys first (collect-then-sort, " +
		"machine-applicable via -fix) or suppress with a reason",
	Gate: deterministic,
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkMapRanges(pass, fd.Body, f)
		}
	}
	return nil
}

// calleeFunc resolves a call expression to the function object it invokes,
// or nil for builtins, closures bound to variables, and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isAppend reports whether call is the append builtin.
func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// appendTarget returns the object a range-body append accumulates into, or
// nil if the call is not an append or the destination cannot be resolved.
func appendTarget(info *types.Info, call *ast.CallExpr) types.Object {
	if !isAppend(info, call) || len(call.Args) == 0 {
		return nil
	}
	switch dst := ast.Unparen(call.Args[0]).(type) {
	case *ast.Ident:
		return info.Uses[dst]
	case *ast.SelectorExpr:
		return info.Uses[dst.Sel]
	}
	return nil
}

// checkMapRanges walks one function body, finds every range over a map,
// and reports the ones whose body makes iteration order observable.
// Diagnostics carry the collect-then-sort rewrite (applied by -fix) when
// the loop's shape provably permits it.
func checkMapRanges(pass *Pass, body *ast.BlockStmt, file *ast.File) {
	// sortedAfter(obj, pos): a sort/slices call mentioning obj at a
	// position after pos — the second half of collect-then-sort.
	sortedAfter := func(obj types.Object, pos ast.Node) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok || call.Pos() < pos.End() {
				return true
			}
			f := calleeFunc(pass.Info, call)
			if f == nil || f.Pkg() == nil || (f.Pkg().Path() != "sort" && f.Pkg().Path() != "slices") {
				return true
			}
			for _, arg := range call.Args {
				ast.Inspect(arg, func(a ast.Node) bool {
					if id, ok := a.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
						found = true
					}
					return !found
				})
			}
			return !found
		})
		return found
	}

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}

		var (
			hazard  string
			escapes []types.Object
		)
		ast.Inspect(rng.Body, func(bn ast.Node) bool {
			if hazard != "" {
				return false
			}
			call, ok := bn.(*ast.CallExpr)
			if !ok {
				return true
			}
			if h, term, ok := ground(pass.Info, pass.Cfg, pass.PkgPath, call); ok && h == HazardEmit {
				hazard = "calls " + term
				return false
			}
			if f := calleeFunc(pass.Info, call); f != nil {
				if s := pass.Summaries.Lookup(f); s.Has(HazardEmit) {
					hazard = "calls " + f.Name() + ", which emits or escapes in call order (" +
						f.Name() + " → " + s.Chain(HazardEmit) + ")"
					return false
				}
			}
			if obj := appendTarget(pass.Info, call); obj != nil && !declaredWithin(obj, rng.Pos(), rng.End()) {
				escapes = append(escapes, obj)
			}
			return true
		})

		switch {
		case hazard != "":
			pass.ReportFix(rng.Pos(), buildMapOrderFix(pass, rng, body, file),
				"map iteration %s; map order is random per range — sort the keys first", hazard)
		case len(escapes) > 0:
			for _, obj := range escapes {
				if !sortedAfter(obj, rng) {
					pass.ReportFix(rng.Pos(), buildMapOrderFix(pass, rng, body, file),
						"map iteration appends to %s, which outlives the loop unsorted; sort it before use (collect-then-sort)",
						obj.Name())
					break
				}
			}
		}
		return true
	})
}
