package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatFold flags floating-point reductions folded in map iteration order.
// Float addition and multiplication are not associative, so even with a
// sorted *effect* (the same set of terms), accumulating them in a random
// order can change the last bits of the result — enough to flip a rounded
// score or a golden report byte. Integers commute exactly and are not
// flagged; the fix is to collect values into a slice, sort by key, and
// fold the sorted slice.
var FloatFold = &Analyzer{
	Name: "floatfold",
	Doc: "flag float accumulation inside map iteration; fold over sorted keys instead " +
		"(float addition is not associative)",
	Gate: deterministic,
	Run:  runFloatFold,
}

func runFloatFold(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
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
			ast.Inspect(rng.Body, func(bn ast.Node) bool {
				// Interprocedural: calling a helper that folds floats into
				// surviving state runs one fold step per key, in map order.
				if call, ok := bn.(*ast.CallExpr); ok {
					if f := calleeFunc(pass.Info, call); f != nil {
						if s := pass.Summaries.Lookup(f); s.Has(HazardFloatAccum) {
							pass.Report(call.Pos(),
								"map iteration calls %s, which accumulates floats into surviving state (%s → %s); fold over sorted keys",
								f.Name(), f.Name(), s.Chain(HazardFloatAccum))
							return false
						}
					}
				}
				as, ok := bn.(*ast.AssignStmt)
				if !ok {
					return true
				}
				if lhs := foldTarget(pass.Info, as); lhs != nil && outlivesRange(pass.Info, lhs, rng) {
					if as.Tok == token.ASSIGN {
						pass.Report(as.Pos(),
							"float accumulation in map iteration order is nondeterministic; fold over sorted keys")
					} else {
						pass.Report(as.Pos(),
							"float accumulation %s in map iteration order is nondeterministic; fold over sorted keys", as.Tok)
					}
				}
				return true
			})
			return true
		})
	}
	return nil
}

// foldTarget returns the target of as when as folds a float into it — a
// compound +=, -=, *= or /=, or its spelled-out x = x op v form — and nil
// otherwise.
func foldTarget(info *types.Info, as *ast.AssignStmt) ast.Expr {
	if len(as.Lhs) != 1 {
		return nil
	}
	lhs := ast.Unparen(as.Lhs[0])
	tv, ok := info.Types[lhs]
	if !ok {
		return nil
	}
	if basic, ok := tv.Type.Underlying().(*types.Basic); !ok || basic.Info()&types.IsFloat == 0 {
		return nil
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return lhs
	case token.ASSIGN:
		if selfReferencingFold(info, lhs, as.Rhs[0]) {
			return lhs
		}
	}
	return nil
}

// outlivesRange reports whether the variable or field lhs has storage
// that outlives the range statement.
func outlivesRange(info *types.Info, lhs ast.Expr, rng *ast.RangeStmt) bool {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		return !declaredWithin(info.Uses[lhs], rng.Pos(), rng.End())
	case *ast.SelectorExpr:
		// A field or qualified variable always outlives the loop body —
		// unless the whole receiver is loop-local (the per-key accumulator
		// pattern `s := get(k); s.total += v`, which is keyed, not folded).
		if root := rootIdent(lhs); root != nil {
			return !declaredWithin(info.Uses[root], rng.Pos(), rng.End())
		}
		return true
	}
	return false
}

// rootIdent unwraps a selector chain (a.b.c) to its base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// selfReferencingFold detects `x = x + expr` (and -, *, /) — the spelled-out
// form of a compound accumulation.
func selfReferencingFold(info *types.Info, lhs ast.Expr, rhs ast.Expr) bool {
	bin, ok := ast.Unparen(rhs).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	lobj := exprObject(info, lhs)
	if lobj == nil {
		return false
	}
	return exprObject(info, bin.X) == lobj || exprObject(info, bin.Y) == lobj
}

// exprObject resolves an ident or selector to its object (field selectors
// resolve to the field var).
func exprObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}
