package lint

import (
	"go/ast"
	"go/types"
)

// callgraph.go builds the bottom-up view of the module that the
// interprocedural layer (summary.go) folds hazard facts over: which
// function declarations exist in each package, and which functions each
// body calls. Go forbids import cycles, so ordering packages topologically
// by imports makes every cross-package callee's summary final before its
// callers are visited; only mutual recursion inside one package needs the
// fixpoint in summary.go.

// declIndex lists each function object declared in pkg with its
// declaration; summaries key them by types.Func.FullName (summary.go).
type declIndex struct {
	pkg   *Package
	decls []funcDecl
}

// funcDecl is one function or method declaration with its resolved object.
type funcDecl struct {
	obj  *types.Func
	decl *ast.FuncDecl
}

// indexFuncs collects every function and method declaration in the package
// in file order, which is deterministic because the loader sorts files.
func indexFuncs(pkg *Package) *declIndex {
	ix := &declIndex{pkg: pkg}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ix.decls = append(ix.decls, funcDecl{obj: obj, decl: fd})
		}
	}
	return ix
}

// callees returns the function objects a body invokes, in source order.
// Interface method calls resolve to the interface method object, which has
// no declaration and therefore no summary — dynamic dispatch is opaque to
// the analysis, by design: the testbed's hot paths and helper chains are
// concrete calls.
func callees(info *types.Info, body *ast.BlockStmt) []*types.Func {
	var out []*types.Func
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := calleeFunc(info, call); f != nil {
			out = append(out, f)
		}
		return true
	})
	return out
}

// topoPackages orders the universe so that every package appears after all
// of its in-universe imports. Input order is the deterministic tie-break
// (the loader sorts packages by path), so the result is stable.
func topoPackages(universe []*Package) []*Package {
	byPath := make(map[string]*Package, len(universe))
	for _, p := range universe {
		byPath[p.PkgPath] = p
	}
	var (
		out     []*Package
		done    = make(map[string]bool, len(universe))
		visit   func(p *Package)
		onStack = make(map[string]bool, len(universe))
	)
	visit = func(p *Package) {
		if done[p.PkgPath] || onStack[p.PkgPath] {
			return
		}
		onStack[p.PkgPath] = true
		for _, imp := range p.Types.Imports() {
			if dep, ok := byPath[imp.Path()]; ok {
				visit(dep)
			}
		}
		onStack[p.PkgPath] = false
		done[p.PkgPath] = true
		out = append(out, p)
	}
	for _, p := range universe {
		visit(p)
	}
	return out
}
