package lint_test

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// cellSkeleton is the evaluator's cell harness (DESIGN.md §18): the only
// functions under internal/ that may build a simulation, deploy a SUT into
// it, or run it.
var cellSkeleton = map[string]bool{
	"cloudybench/internal/evaluator.runCell":    true,
	"cloudybench/internal/evaluator.runTenants": true,
	"cloudybench/internal/evaluator.finish":     true,
}

// engineOnlySims build a simulation only to host a bare engine: they deploy
// nothing and run nothing.
var engineOnlySims = map[string]string{
	"cloudybench/internal/experiments.selectivitySweep": "the planner-cliff table queries one engine.DB directly",
}

// skeletonCalls are the functions that build a simulation or a deployment,
// or run a simulation: only the skeleton calls them.
var skeletonCalls = map[string]bool{
	"cloudybench/internal/sim.New":               true,
	"cloudybench/internal/sim.NewAt":             true,
	"(*cloudybench/internal/sim.Sim).Run":        true,
	"cloudybench/internal/cdb.Deploy":            true,
	"cloudybench/internal/cdb.MustDeploy":        true,
	"cloudybench/internal/cdb.DeployTenants":     true,
	"cloudybench/internal/cdb.MustDeployTenants": true,
}

// TestOnlyTheCellSkeletonBuildsADeployment fails on any function in a
// non-test file under internal/ that references a skeletonCall outside the
// cell skeleton: a cell declares a spec and lets the harness deploy, drive,
// drain and finish it. The sim and cdb packages, which define these calls,
// are exempt, and so are the engine-only sims. The benchmark, the commands
// and the examples sit outside internal/ and build their own.
func TestOnlyTheCellSkeletonBuildsADeployment(t *testing.T) {
	pkgs, err := sharedLoader(t).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	var sites []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.PkgPath, "cloudybench/internal/") ||
			p.PkgPath == "cloudybench/internal/sim" || p.PkgPath == "cloudybench/internal/cdb" {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				name := p.Info.Defs[fd.Name].(*types.Func).FullName()
				declared[name] = true
				var calls []string
				ast.Inspect(fd, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.Info.Uses[id].(*types.Func); ok && skeletonCalls[fn.Origin().FullName()] {
							calls = append(calls, fn.Origin().FullName())
						}
					}
					return true
				})
				if len(calls) > 0 && !cellSkeleton[name] && engineOnlySims[name] == "" {
					sites = append(sites, name+" calls "+strings.Join(calls, ", "))
				}
				if len(calls) == 0 && engineOnlySims[name] != "" {
					t.Errorf("%s builds no simulation now; drop it from engineOnlySims", name)
				}
			}
		}
	}
	for name := range cellSkeleton {
		if !declared[name] {
			t.Errorf("%s no longer exists; drop it from cellSkeleton", name)
		}
	}
	for name := range engineOnlySims {
		if !declared[name] {
			t.Errorf("%s no longer exists; drop it from engineOnlySims", name)
		}
	}
	sort.Strings(sites)
	if len(sites) > 0 {
		t.Errorf("%d functions build or run a simulation outside the cell skeleton; declare a spec and call runCell instead:\n\t%s",
			len(sites), strings.Join(sites, "\n\t"))
	}
}

// TestOnlySessionCellsFansOut fails if a function in a non-test file other
// than sessionCells calls runCells, the experiments' cell worker pool: a
// driver reads its cells through the session's memo (DESIGN.md §18), so
// each cell runs once per session and a pool never nests inside another.
func TestOnlySessionCellsFansOut(t *testing.T) {
	const fanOut, memo = "cloudybench/internal/experiments.runCells", "cloudybench/internal/experiments.sessionCells"
	pkgs, err := sharedLoader(t).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var callers []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				caller := "a package-level declaration of " + p.Fset.Position(d.Pos()).Filename
				if fd, ok := d.(*ast.FuncDecl); ok {
					caller = p.Info.Defs[fd.Name].(*types.Func).FullName()
				}
				calls := false
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := p.Info.Uses[id].(*types.Func); ok && fn.Origin().FullName() == fanOut {
							calls = true
						}
					}
					return true
				})
				if calls {
					callers = append(callers, caller)
				}
			}
		}
	}
	sort.Strings(callers)
	if len(callers) != 1 || callers[0] != memo {
		t.Errorf("runCells is called by %v; only sessionCells may fan cells out — read them through it", callers)
	}
}
