package difftest

import (
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
)

// runOne executes one suite with the dual-plan hook installed and fails the
// test on any divergence, failed invariant, or a run that never exercised
// the comparator.
func runOne(t *testing.T, suite string, kind cdb.Kind, cfg evaluator.SuiteConfig) {
	t.Helper()
	d := &Differ{}
	cfg.Suite = suite
	cfg.Kind = kind
	cfg.ScanOverride = d.Scan
	res := evaluator.RunSuite(cfg)
	if !res.Passed() {
		t.Fatalf("%s on %s: invariants failed: %v", suite, kind, res.Verdicts)
	}
	if res.Commits == 0 {
		t.Fatalf("%s on %s: no commits", suite, kind)
	}
	if d.Compared == 0 {
		t.Fatalf("%s on %s: the differ never ran — suite issued no planner scans", suite, kind)
	}
	if !d.Clean() {
		t.Fatalf("%s on %s: index plan diverged from the full-scan oracle after %d clean scans:\n%v",
			suite, kind, d.Compared, d.Diffs)
	}
}

// TestDifferentialAllSuitesAllSUTs is the core differential guarantee:
// every registered suite, on every SUT profile, returns byte-identical
// results through the index and through the full-scan oracle.
func TestDifferentialAllSuitesAllSUTs(t *testing.T) {
	for _, kind := range cdb.Kinds {
		for _, suite := range core.SuiteNames() {
			runOne(t, suite, kind, evaluator.SuiteConfig{
				Span: 3 * time.Second, Concurrency: 4,
			})
		}
	}
}

// TestDifferentialUnderChaos re-proves the oracle property while the
// standard fault schedule (crashes, stalls, burst load) is live.
func TestDifferentialUnderChaos(t *testing.T) {
	for _, suite := range core.SuiteNames() {
		runOne(t, suite, cdb.CDB2, evaluator.SuiteConfig{
			Span: 8 * time.Second, Concurrency: 4, Gauntlet: evaluator.SuiteChaos,
		})
	}
}

// TestDifferentialUnderFailover re-proves the oracle property across a gray
// partition and lease-fenced fail-over: scans served by replicas and by the
// promoted primary must still match their own full-scan oracle.
func TestDifferentialUnderFailover(t *testing.T) {
	for _, suite := range core.SuiteNames() {
		runOne(t, suite, cdb.CDB4, evaluator.SuiteConfig{
			Span: 12 * time.Second, Concurrency: 4, Gauntlet: evaluator.SuitePartition,
		})
	}
}
