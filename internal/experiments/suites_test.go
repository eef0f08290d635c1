package experiments

import (
	"fmt"
	"strings"
	"testing"

	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
)

// TestSuitesGolden pins the rendered scenario-suite report byte for byte —
// per-suite throughput, the planner split, index WAL traffic, the
// selectivity sweep, and the gauntlet composition table all feed
// EXPERIMENTS.md verbatim. Regenerate deliberately with -update.
func TestSuitesGolden(t *testing.T) {
	sess := shared(t, mini)
	read(sess.suiteCells)
	out, err := Suites(sess)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "suites", out)
}

// TestSuitesCoversGridAndPasses checks the experiment's shape: every
// registered suite appears on every SUT plus one chaos and one partition
// composition cell, every cell's invariants pass, every cell cross-checks at
// least one read-only scan against its other plan, and the report shows the
// selectivity cliff (both plans present in the sweep).
func TestSuitesCoversGridAndPasses(t *testing.T) {
	sess := shared(t, tiny)
	results := read(sess.suiteCells)
	out, err := Suites(sess)
	if err != nil {
		t.Fatal(err)
	}
	grid := suiteGrid(tiny)
	suites := core.SuiteNames()
	wantCells := len(suites)*len(SUTs) + 2*len(suites)
	if len(results) != wantCells {
		t.Fatalf("cells = %d, want %d", len(results), wantCells)
	}
	for i, r := range results {
		cell := fmt.Sprintf("%s on %s %s", r.Suite, r.Kind, grid[i].Gauntlet)
		compared := 0
		for _, v := range r.Verdicts {
			if !v.Passed {
				t.Errorf("%s: %s: %s", cell, v.Name, v)
			}
			if strings.HasPrefix(v.Name, "scan-coherent/") {
				compared += v.Checked
			}
		}
		if r.Commits == 0 {
			t.Errorf("%s: no commits", cell)
		}
		if compared == 0 {
			t.Errorf("%s: no read-only scan was cross-checked", cell)
		}
	}
	for _, suite := range suites {
		if !strings.Contains(out, suite) {
			t.Fatalf("report missing suite %q:\n%s", suite, out)
		}
	}
	for _, kind := range SUTs {
		if !strings.Contains(out, string(kind)) {
			t.Fatalf("report missing SUT %q:\n%s", kind, out)
		}
	}
	for _, want := range []string{"index-scan", "full-scan", "Selectivity sweep", "chaos", "partition", "IxPut"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// The partition composition on CDB4 must exercise fencing of index
	// writes: every partition cell is the partition experiment's suite cell,
	// so it promotes (the epoch advances), and index WAL records flow in it.
	for i, r := range results {
		if grid[i].Gauntlet != evaluator.SuitePartition {
			continue
		}
		if r.Epoch < 2 {
			t.Errorf("%s under partition: epoch %d, want >= 2 (no promotion, gauntlet composition inert)", r.Suite, r.Epoch)
		}
		if r.IndexWALPuts == 0 {
			t.Errorf("%s under partition: no index WAL records", r.Suite)
		}
	}
}
