// Package mutants is the mutant catalogue: each entry plants one real
// mechanism bug in a copy of one source file and names the test that must
// fail on it, and the words that failure must print. A PASS from a checker
// means something only if the checker fails when the mechanism it guards is
// broken; the catalogue makes that proof a re-runnable test instead of a
// hand edit in a scratch tree, and no production type carries code whose
// only job is to break it.
//
// TestCatalogueIsWellFormed (tier-1, no processes) keeps the catalogue in
// step with the code. TestMutantsAreKilled, behind the mutants build tag,
// runs every mutant:
//
//	go test -tags mutants -run TestMutantsAreKilled ./internal/mutants/
package mutants

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// A mutant is one planted bug and the test that must kill it.
type mutant struct {
	name string // what the bug is; also its subtest name
	file string // module-relative path of the mutated file
	from string // an exact fragment of file; it occurs exactly once
	to   string // what the fragment becomes
	pkg  string // module-relative directory of the package whose test kills it
	run  string // the killing Test… or Fuzz… function, run as -run ^run$
	want string // a substring the failing output must contain
}

// root is the module root, relative to this package's directory (where go
// test runs its binary).
const root = "../.."

var catalogue = []mutant{
	// Fencing and the split-brain checker.
	{
		name: "fence acknowledges every epoch",
		file: "internal/storage/fence.go",
		from: "if epoch == f.epoch {",
		to:   "if epoch <= f.epoch {",
		pkg:  "internal/evaluator",
		run:  "TestPartitionPromoteArchitectureFailsOverAndFences",
		want: "no-split-brain: FAIL",
	},
	{
		name: "no-split-brain ignores stale-epoch acks",
		file: "internal/check/fence.go",
		from: "if ev.Epoch != ev.FenceEpoch {",
		to:   "if ev.Epoch > ev.FenceEpoch {",
		pkg:  "internal/check",
		run:  "TestNoSplitBrainCatchesDisabledFencing",
		want: "NoSplitBrain passed on a history with two unfenced primaries",
	},

	// Replication.
	{
		name: "replica replay drops the first record of every chunk",
		file: "internal/replication/replication.go",
		from: "st.replica.DB.ApplyRefs(recs)",
		to:   "st.replica.DB.ApplyRefs(recs[1:])",
		pkg:  "internal/evaluator",
		run:  "TestChaosInvariantsHoldUnderFaults",
		want: "convergence/ro0: FAIL",
	},
	{
		name: "replay clears a record's flags through its reference",
		file: "internal/replication/replication.go",
		from: "st.applied++\n\t\t\tif rec.LSN > st.appliedLSN {",
		to:   "st.applied++\n\t\t\trec.Flags = 0\n\t\t\tif rec.LSN > st.appliedLSN {",
		pkg:  "internal/replication",
		run:  "TestStreamNeverWritesThroughItsReferences",
		want: "the primary's log changed while the stream shipped and applied it",
	},
	{
		name: "the link is charged the prior image",
		file: "internal/replication/replication.go",
		from: "return rec.Size() - len(rec.Prior)",
		to:   "return rec.Size()",
		pkg:  "internal/replication",
		run:  "TestStreamNeverWritesThroughItsReferences",
		want: "link charged 36337 bytes, want 34579",
	},

	// Durability and recovery.
	{
		name: "commit acknowledges before the fsync",
		file: "internal/engine/db.go",
		from: "commit.LSN = db.log.Append(commit)\n\t\tdb.log.Sync()",
		to:   "commit.LSN = db.log.Append(commit)",
		pkg:  "internal/evaluator",
		run:  "TestCrashGauntletAllArchitecturesSurvive",
		want: "durability/rw: FAIL",
	},
	{
		name: "recovery skips undo",
		file: "internal/engine/recovery.go",
		from: "t.undoSet(Key(r.Key), prior, r.Page, existed, inDelta)",
		to:   "_, _ = prior, inDelta",
		pkg:  "internal/evaluator",
		run:  "TestCrashGauntletAllArchitecturesSurvive",
		want: "durability/rw: FAIL",
	},

	// Secondary indexes.
	{
		name: "a row write refreshes indexes as if the key had no row",
		file: "internal/engine/table.go",
		from: "t.refreshIndexes(k, old)\n\treturn page, old, inDelta, nil",
		to:   "t.refreshIndexes(k, nil)\n\treturn page, old, inDelta, nil",
		pkg:  "internal/check",
		run:  "TestIndexCoherent",
		want: "index ix_items_group on items: 32 entries, table projects 30",
	},
	{
		name: "an index scan excludes its upper bound",
		file: "internal/engine/index.go",
		from: "hiK := append(EncodeKey(hi), 0xFF)",
		to:   "hiK := EncodeKey(hi)",
		pkg:  "internal/evaluator",
		run:  "TestRunSuitePlain",
		want: "scan-coherent/ro0: FAIL",
	},

	// The slab B-tree.
	{
		name: "a shrinking node prefix keeps stale abbreviations",
		file: "internal/engine/btree.go",
		from: "n.plen = int32(m)\n\t\tt.reabbrev(n)",
		to:   "n.plen = int32(m)",
		pkg:  "internal/engine",
		run:  "TestSlabBTreeMatchesReference",
		want: "abbreviation 0, want",
	},
	{
		name: "an abbreviation tie on short keys is a match",
		file: "internal/engine/btree.go",
		from: "c = cmp.Compare(len(mk), len(k))",
		to:   "c = 0",
		pkg:  "internal/engine",
		run:  "FuzzBTreeOps",
		want: "reference 0,false",
	},
	{
		name: "Delete does not free the value reference",
		file: "internal/engine/btree.go",
		from: "*p = zero\n\tt.vfree = append(t.vfree, v)",
		to:   "*p = zero",
		pkg:  "internal/engine",
		run:  "TestSlabBTreeMatchesReference",
		want: "free value references",
	},
	{
		name: "clone shares the value chunks",
		file: "internal/engine/btree.go",
		from: "c.vals[i] = slices.Clone(t.vals[i])",
		to:   "c.vals[i] = t.vals[i]",
		pkg:  "internal/engine",
		run:  "TestSnapshotSurvivesInPlaceOverlayWrites",
		want: "a restore no longer reads what the snapshot captured",
	},

	// Generated strings.
	{
		name: "a string carve steps back over the previous one",
		file: "internal/engine/strslab.go",
		from: "s.at = len(s.buf)\n\ts.buf = append(s.buf, prefix...)",
		to:   "s.at = max(len(s.buf)-1, 0)\n\ts.buf = append(s.buf[:s.at], prefix...)",
		pkg:  "internal/engine",
		run:  "TestStrSlabCarvesImmutableViews",
		want: "carve 0 became",
	},
	{
		name: "FillLetters draws from 25 letters",
		file: "internal/rng/quick.go",
		from: "q.Next()%26",
		to:   "q.Next()%25",
		pkg:  "internal/core",
		run:  "TestGeneratorsMatchAllocatingSpelling",
		want: "seed 42 customer 1:",
	},

	// The DES kernel.
	{
		name: "runnext beats an earlier same-instant heap event",
		file: "internal/sim/sim.go",
		from: "case s.runnextSet && (len(s.events) == 0 || lessEv(s.runnext, s.events[0])):",
		to:   "case s.runnextSet:",
		pkg:  "internal/sim",
		run:  "TestDispatchOrderOracle",
		want: "dispatch digest",
	},
}

// TestCatalogueIsWellFormed checks, without building a mutant, that every
// entry still applies to the code: its file exists, its fragment occurs
// exactly once and changes, and its killing test is declared in its package.
// A refactor that moves a fragment or renames a test fails here, not
// silently in the mutants job.
func TestCatalogueIsWellFormed(t *testing.T) {
	if len(catalogue) == 0 {
		t.Fatal("the catalogue is empty")
	}
	names := make(map[string]bool)
	tests := make(map[string]map[string]bool) // pkg -> declared test funcs
	for _, m := range catalogue {
		if m.name == "" || names[m.name] {
			t.Errorf("mutant %q: name empty or used twice", m.name)
		}
		names[m.name] = true
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			t.Errorf("mutant %q: %v", m.name, err)
			continue
		}
		if n := strings.Count(string(src), m.from); n != 1 {
			t.Errorf("mutant %q: fragment %q occurs %d times in %s, want once", m.name, m.from, n, m.file)
		}
		if m.to == m.from {
			t.Errorf("mutant %q: to equals from", m.name)
		}
		if m.want == "" {
			t.Errorf("mutant %q: no wanted failure output", m.name)
		}
		if tests[m.pkg] == nil {
			tests[m.pkg] = declaredTests(t, m.pkg)
		}
		if !tests[m.pkg][m.run] {
			t.Errorf("mutant %q: %s declares no test %s", m.name, m.pkg, m.run)
		}
	}
}

// declaredTests returns the Test… and Fuzz… functions the _test.go files of
// the package in dir declare.
func declaredTests(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(root, dir, "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Errorf("package %s: no test files (%v)", dir, err)
		return nil
	}
	out := make(map[string]bool)
	fset := token.NewFileSet()
	for _, f := range files {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Errorf("package %s: %v", dir, err)
			continue
		}
		for _, d := range af.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Recv == nil && (strings.HasPrefix(fd.Name.Name, "Test") || strings.HasPrefix(fd.Name.Name, "Fuzz")) {
				out[fd.Name.Name] = true
			}
		}
	}
	return out
}
