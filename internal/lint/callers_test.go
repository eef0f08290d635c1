package lint_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// harnessPkgs are packages whose non-test files exist only for tests of
// other packages; their declarations are exempt as a whole.
var harnessPkgs = map[string]string{
	"cloudybench/internal/engine/difftest": "the engine differential oracle's harness (TestDifferential*)",
	"cloudybench/internal/lint/linttest":   "the analyzer fixture harness (TestWallClock and the other analyzer tests)",
}

// keepWithoutCaller lists the functions and methods that no non-test file
// references but that stay on purpose, each with the one test that needs it.
var keepWithoutCaller = map[string]string{
	// The kernel API TestDispatchOrderOracle's random programs draw from;
	// its pinned dispatch digests depend on every one of them.
	"cloudybench/internal/sim.NewMutex":                        "TestDispatchOrderOracle: random programs lock kernel mutexes",
	"(*cloudybench/internal/sim.Mutex).Lock":                   "TestDispatchOrderOracle: random programs lock kernel mutexes",
	"(*cloudybench/internal/sim.Mutex).Unlock":                 "TestDispatchOrderOracle: random programs lock kernel mutexes",
	"(*cloudybench/internal/sim.Proc).Yield":                   "TestDispatchOrderOracle: random programs yield at the same instant",
	"(*cloudybench/internal/sim.Resource).Use":                 "TestDispatchOrderOracle: random programs hold resources for a span",
	"(*cloudybench/internal/sim.Resource).Peak":                "TestElasticPoolSharesCapacity (cdb): tenants borrow beyond their fair share of the pool",
	"(*cloudybench/internal/engine.Index).CorruptEntryForTest": "TestIndexCoherent (check): the checker's teeth against a corrupted index",

	// Fixtures that tests of other behaviour build on.
	"(*cloudybench/internal/lint.Loader).LoadDir":       "TestWallClock and the other analyzer tests (via linttest): fixture packages load outside the module",
	"(*cloudybench/internal/engine.DB).MustCreateTable": "TestCheckpointerFlushesDirtyPages (node) and most engine tests build tables with it",
	"(*cloudybench/internal/engine.DB).MustCreateIndex": "TestIndexCoherent (check) builds its secondary index with it",
	"(*cloudybench/internal/engine.Table).Update":       "TestTableUpdateOverlaysBase (engine) and the snapshot tests write rows outside a transaction",
	"(*cloudybench/internal/engine.Table).Delete":       "TestTableDeleteTombstonesBase (engine) tombstones rows outside a transaction",
	"(*cloudybench/internal/obs.StageAgg).AddSpan":      "TestGoldenStageBreakdown (report): the flame-table fixture feeds spans directly",
	"(*cloudybench/internal/obs.StageAgg).Merge":        "TestGoldenStageBreakdown (report): the fixture folds a tracer's transactions in",

	// Observation points that tests of other behaviour read through.
	"(*cloudybench/internal/cluster.Cluster).Fence":         "TestPartitionPromoteFencesOldPrimary: the fence epoch after a fail-over",
	"(*cloudybench/internal/node.Node).Epoch":               "TestPartitionPromoteFencesOldPrimary: the old primary's epoch after rejoin",
	"(*cloudybench/internal/node.Node).MemoryBytes":         "TestScaleEventsTrackMemory (autoscale): memory follows the vCore allocation",
	"(*cloudybench/internal/core.Collector).CountByOp":      "TestTPCCFullMixRuns (baselines): every TPC-C transaction committed",
	"(*cloudybench/internal/engine.LockTable).HeldLocks":    "TestSharedScratchMatchesFreshBuffers (engine_test): every lock is released",
	"(cloudybench/internal/engine.Row).Equal":               "TestGeneratorsMatchAllocatingSpelling (core): generated rows compared column-wise",
	"(*cloudybench/internal/storage.BufferPool).Contains":   "TestCDB4RemoteBufferInvalidation (cdb): which replica pages were invalidated",
	"(*cloudybench/internal/storage.BufferPool).DirtyCount": "TestCheckpointerFlushesDirtyPages (node): the checkpointer cleaned the pool",
	"(*cloudybench/internal/obs.Timeline).Aggregate":        "TestSoakLongitudinal (evaluator): the timeline equals the tracer's whole-run aggregate",
	"(*cloudybench/internal/obs.StageAgg).Equal":            "TestSoakLongitudinal (evaluator): the timeline equals the tracer's whole-run aggregate",
	"(*cloudybench/internal/obs.Timeline).Marks":            "TestSoakLongitudinal (evaluator): chaos and sweep marks land in the timeline",
	"(cloudybench/internal/evaluator.SoakResult).Passed":    "TestSoakGolden (experiments): every SUT's soak verdict holds",
}

// TestEveryFunctionHasAProductionCaller fails on any function or method in
// a non-test file that no non-test file of the module references (the
// benchmark, the commands and the examples count as callers). Exempt are
// main and init, the harness packages, methods whose receiver implements an
// interface declaring them (reached by dynamic dispatch), and the keep-list.
// A reference from inside the function's own body does not count.
func TestEveryFunctionHasAProductionCaller(t *testing.T) {
	loader := sharedLoader(t)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}

	// decls maps each declared function to its declaration's extent.
	type extent struct{ start, end token.Pos }
	decls := make(map[*types.Func]extent)
	for _, p := range pkgs {
		if harnessPkgs[p.PkgPath] != "" {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || (fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "init")) {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = extent{fd.Pos(), fd.End()}
				}
			}
		}
	}

	used := make(map[*types.Func]bool)
	ifaces := make(map[string][]*types.Interface) // method name -> interfaces declaring it
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			ifaces[name] = append(ifaces[name], it)
		}
	}
	for _, p := range pkgs {
		if harnessPkgs[p.PkgPath] != "" {
			// A harness serves tests only; what it reaches has no
			// production caller through it.
			continue
		}
		for id, obj := range p.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d, own := decls[fn]; own && id.Pos() >= d.start && id.Pos() < d.end {
				continue
			}
			used[fn] = true
		}
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
				addIface(it)
			}
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := make(map[*types.Package]bool)
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
	}

	implementsDeclaring := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		for _, it := range ifaces[fn.Name()] {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
		return false
	}

	declared := make(map[string]bool, len(decls))
	var dead []string
	for fn := range decls {
		name := fn.FullName()
		declared[name] = true
		if used[fn] || implementsDeclaring(fn) {
			if keepWithoutCaller[name] != "" {
				t.Errorf("%s has a production caller now; drop it from keepWithoutCaller", name)
			}
			continue
		}
		if keepWithoutCaller[name] == "" {
			dead = append(dead, name)
		}
	}
	for name := range keepWithoutCaller {
		if !declared[name] {
			t.Errorf("keepWithoutCaller names %s, which no longer exists", name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d functions have no caller in a non-test file; delete them (and their tests), or add each to keepWithoutCaller with the test that needs it:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}
