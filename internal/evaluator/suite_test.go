package evaluator

import (
	"strings"
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
)

// requirePassed fails the test with every failed verdict of a suite run,
// one "name: FAIL: …" line each.
func requirePassed(t *testing.T, label string, res SuiteResult) {
	t.Helper()
	for _, v := range res.Verdicts {
		if !v.Passed {
			t.Errorf("%s: %s: %s", label, v.Name, v)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// scansChecked totals a suite run's scan cross-checks over its members.
func scansChecked(res SuiteResult) int {
	n := 0
	for _, v := range res.Verdicts {
		if strings.HasPrefix(v.Name, "scan-coherent/") {
			n += v.Checked
		}
	}
	return n
}

// TestRunSuitePlain runs each registered suite briefly on CDB1 and checks
// the basics: commits flowed, every op fired, the planner exercised the
// index, index WAL records were emitted, scans were cross-checked against
// their other plan, and every invariant passed.
func TestRunSuitePlain(t *testing.T) {
	for _, name := range core.SuiteNames() {
		res := RunSuite(SuiteConfig{
			Suite: name, Kind: cdb.CDB1,
			Span: 4 * time.Second, Concurrency: 6,
		})
		requirePassed(t, name, res)
		if res.Commits == 0 {
			t.Fatalf("%s: no commits", name)
		}
		if len(res.Ops) == 0 {
			t.Fatalf("%s: no per-op counts", name)
		}
		if res.IndexScans == 0 {
			t.Fatalf("%s: planner never chose the index", name)
		}
		if res.IndexWALPuts == 0 {
			t.Fatalf("%s: no index WAL records — index writes bypass the log", name)
		}
		if len(res.Verdicts) < 5 { // index- and scan-coherent rw + ro0, convergence ro0
			t.Fatalf("%s: thin verdict sheet: %v", name, res.Verdicts)
		}
		if scansChecked(res) == 0 {
			t.Fatalf("%s: no read-only scan was cross-checked", name)
		}
	}
}

// TestRunSuiteChaos runs every registered suite on CDB2 under the standard
// chaos gauntlet: faults fire (node kills among them), yet index coherence,
// scan coherence and convergence must hold. The scan cross-check counts
// live on the node, so a crash and recovery keep them.
func TestRunSuiteChaos(t *testing.T) {
	for _, name := range core.SuiteNames() {
		res := RunSuite(SuiteConfig{
			Suite: name, Kind: cdb.CDB2,
			Span: 8 * time.Second, Concurrency: 4, Gauntlet: SuiteChaos,
		})
		if len(res.Applied) == 0 {
			t.Fatalf("%s: chaos schedule injected nothing", name)
		}
		requirePassed(t, name+" under chaos", res)
		if res.Commits == 0 {
			t.Fatalf("%s: no commits under chaos", name)
		}
		if scansChecked(res) == 0 {
			t.Fatalf("%s: no read-only scan was cross-checked under chaos", name)
		}
	}
}

// TestRunSuitePartition runs the timeseries suite through the gray
// partition: the fail-over must complete, the fenced-write check must see
// index WAL records (stale-epoch index writes are refused with their data),
// and post-promotion index state must be coherent on every node.
func TestRunSuitePartition(t *testing.T) {
	res := RunSuite(SuiteConfig{
		Suite: core.SuiteTimeseries, Kind: cdb.CDB4,
		Span: 12 * time.Second, Concurrency: 6, Gauntlet: SuitePartition,
	})
	requirePassed(t, "timeseries under partition", res)
	if res.Epoch < 2 {
		t.Fatalf("fail-over never advanced the lease: epoch %d", res.Epoch)
	}
	if res.IndexWALPuts == 0 {
		t.Fatal("no index WAL records in any node log during the partition run")
	}
	hasFence := false
	for _, v := range res.Verdicts {
		if v.Name == "no-split-brain" {
			hasFence = true
		}
	}
	if !hasFence && len(res.Verdicts) < 4 {
		t.Fatalf("fence verdicts missing from the sheet: %v", res.Verdicts)
	}
}

// TestRunSuiteDeterministic re-runs one suite config and requires an
// identical result — the cheap in-package determinism gate (the full
// cross-GOMAXPROCS matrix lives in determinism_test.go).
func TestRunSuiteDeterministic(t *testing.T) {
	cfg := SuiteConfig{Suite: core.SuiteLob, Kind: cdb.RDS, Span: 3 * time.Second, Concurrency: 4}
	a := RunSuite(cfg)
	b := RunSuite(cfg)
	if a.Commits != b.Commits || a.TPS != b.TPS || a.IndexScans != b.IndexScans ||
		a.IndexWALPuts != b.IndexWALPuts || len(a.Ops) != len(b.Ops) {
		t.Fatalf("suite run not deterministic:\n a=%+v\n b=%+v", a, b)
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op counts differ: %v vs %v", a.Ops, b.Ops)
		}
	}
}
