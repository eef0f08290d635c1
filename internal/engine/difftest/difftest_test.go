package difftest

import (
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/sim"
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

// TestDifferDetectsCorruption is the harness's teeth: a fabricated index
// entry (wrong column value for a live row) must surface as a divergence,
// proving a real maintenance bug could not slip past the comparator.
func TestDifferDetectsCorruption(t *testing.T) {
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db := engine.NewDB(s)
	tbl := db.MustCreateTable(&engine.Schema{
		Name: "items",
		Cols: []engine.Column{
			{Name: "IT_ID", Kind: engine.KindInt},
			{Name: "IT_GROUP", Kind: engine.KindInt},
		},
		KeyCols:     []int{0},
		AvgRowBytes: 32,
	}, 20, func(dst engine.Row, id int64) engine.Row {
		return append(dst[:0], engine.Int(id), engine.Int(id%4))
	})
	ix := db.MustCreateIndex("items", "ix_items_group", "IT_GROUP")

	d := &Differ{}
	if _, err := d.Compare(tbl, 1, engine.Int(2), engine.Int(2), 0); err != nil {
		t.Fatal(err)
	}
	if d.Compared != 1 || !d.Clean() {
		t.Fatalf("clean index reported diffs: %v", d.Diffs)
	}

	// Row 1 has IT_GROUP=1; claim the index also files it under group 2.
	ix.CorruptEntryForTest(ix.EntryKey(engine.Int(2), engine.IntKey(1)), engine.IntKey(1))
	if _, err := d.Compare(tbl, 1, engine.Int(2), engine.Int(2), 0); err != nil {
		t.Fatal(err)
	}
	if d.Clean() {
		t.Fatal("differ missed a fabricated index entry")
	}
}
