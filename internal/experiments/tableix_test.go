package experiments

import (
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/cluster"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/metrics"
)

// TestPerfectScoresComposes: Table IX's row is a composition of typed
// results, so it is checked on hand-built ones. E1/E1* and T/T* are the
// means over the SUT's cells, F and R the FScore and RScore of its RW and
// RO fail-overs, P/P*/C/E2 come from its own cells, another SUT's cells
// are skipped, and the O-Score of the composed row is defined.
func TestPerfectScoresComposes(t *testing.T) {
	own := tableIXCells{
		oltp: evaluator.OLTPResult{PScore: 1000, PStarScore: 500},
		lag:  evaluator.LagResult{CScore: 20 * time.Millisecond},
		e2:   evaluator.E2Result{E2Score: 4},
	}
	elastic := []evaluator.ElasticityResult{
		{Kind: cdb.CDB1, E1Score: 100, E1StarScore: 10},
		{Kind: cdb.CDB2, E1Score: 1e9, E1StarScore: 1e9},
		{Kind: cdb.CDB1, E1Score: 300, E1StarScore: 30},
	}
	tenancy := []evaluator.TenancyResult{
		{Kind: cdb.CDB1, TScore: 40, TScoreStar: 4},
		{Kind: cdb.CDB1, TScore: 80, TScoreStar: 8},
		{Kind: cdb.CDB2, TScore: 1e9, TScoreStar: 1e9},
	}
	failover := []evaluator.FailoverResult{
		{Kind: cdb.CDB2, Role: cluster.RW, F: time.Hour, R: time.Hour},
		{Kind: cdb.CDB1, Role: cluster.RW, F: 4 * time.Second, R: 6 * time.Second},
		{Kind: cdb.CDB1, Role: cluster.RO, F: 2 * time.Second, R: 0},
	}
	got := perfectScores(cdb.CDB1, own, elastic, tenancy, failover)
	want := metrics.Scores{
		System: "cdb1", P: 1000, PStar: 500, E1: 200, E1Star: 20,
		R: 3 * time.Second, F: 3 * time.Second, E2: 4,
		C: 20 * time.Millisecond, T: 60, TStar: 6,
	}
	if got != want {
		t.Fatalf("perfectScores = %+v\nwant %+v", got, want)
	}
	if got.O() == 0 || got.OStar() == 0 {
		t.Fatalf("O = %v, O* = %v from %+v", got.O(), got.OStar(), got)
	}
}

// TestTableIXReadsTheSessionTables: in one session each artifact that is a
// view of another's cells reads them instead of running them again — Table
// V after Figure 5, Table VI after Figure 6, Table VIII after Figure 7 (its
// CDB4 RW cell), and Table IX's C after the §III-F table — and Table IX
// renders byte for byte what a standalone run renders. For every SUT, each
// composed score equals its mean over those tables, C equals the §III-F
// table's (60,30,10) row, and both O-Scores are defined. Run the other way
// round, Figure 5 after Table V runs no cell either. It runs at the mini
// scale: the tenancy and fail-over cells of the tiny scale would make it
// three times as long.
func TestTableIXReadsTheSessionTables(t *testing.T) {
	if testing.Short() {
		t.Skip("composite run")
	}
	suts := len(SUTs)
	added := map[string]int{ // cells each artifact adds to the session after the ones before it
		"f5": 3 * suts, "t5": 0, "f6": 4 * suts, "t6": 0, "f7": 1, "t7": 4 * suts, "t8": 2*suts - 1,
		"lag": 4 * suts, "t9": 2 * suts, // t9 runs its P and E2 cells only
	}
	sess := NewSession(mini)
	outs := map[string]string{}
	for _, id := range []string{"f5", "t5", "f6", "t6", "f7", "t7", "t8", "lag", "t9"} {
		before := len(sess.cells)
		out, err := sess.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		outs[id] = out
		if got := len(sess.cells) - before; got != added[id] {
			t.Errorf("%s added %d cells to the session, want %d", id, got, added[id])
		}
	}
	standalone, err := Run("t9", mini)
	if err != nil {
		t.Fatal(err)
	}
	if outs["t9"] != standalone {
		t.Fatalf("shared-session Table IX differs from a standalone run:\n%s\nvs\n%s", outs["t9"], standalone)
	}

	reversed := NewSession(mini)
	for _, id := range []string{"t5", "f5"} {
		before := len(reversed.cells)
		out, err := reversed.Run(id)
		if err != nil {
			t.Fatal(err)
		}
		if out != outs[id] {
			t.Errorf("%s run after t5 differs from %s run after f5:\n%s\nvs\n%s", id, id, out, outs[id])
		}
		if id == "f5" && len(reversed.cells) != before {
			t.Errorf("f5 after t5 ran %d cells", len(reversed.cells)-before)
		}
	}

	before := len(sess.cells)
	elastic, tenancy, failover := sess.elasticity(SUTs), sess.tableVIICells(), sess.tableVIIICells()
	lag := sess.lagCells() // the first len(SUTs) rows are the (60,30,10) mix
	scores := sess.tableIXScores()
	if len(sess.cells) != before {
		t.Fatalf("re-reading the session's tables ran %d cells", len(sess.cells)-before)
	}
	for i, kind := range SUTs {
		s := scores[i]
		var e1, e1Star, tsum, tStar, n, m float64
		for _, r := range elastic {
			if r.Kind == kind {
				e1, e1Star, n = e1+r.E1Score, e1Star+r.E1StarScore, n+1
			}
		}
		for _, r := range tenancy {
			if r.Kind == kind {
				tsum, tStar, m = tsum+r.TScore, tStar+r.TScoreStar, m+1
			}
		}
		rw, ro := failover[2*i], failover[2*i+1]
		if n != 4 || m != 4 || rw.Kind != kind || ro.Kind != kind {
			t.Fatalf("%s: %v elasticity and %v tenancy cells, fail-overs of %s and %s", kind, n, m, rw.Kind, ro.Kind)
		}
		if s.E1 != e1/n || s.E1Star != e1Star/n || s.T != tsum/m || s.TStar != tStar/m {
			t.Errorf("%s: E1/E1*/T/T* = %v/%v/%v/%v, table means %v/%v/%v/%v",
				kind, s.E1, s.E1Star, s.T, s.TStar, e1/n, e1Star/n, tsum/m, tStar/m)
		}
		if s.F != (rw.F+ro.F)/2 || s.R != (rw.R+ro.R)/2 {
			t.Errorf("%s: F/R = %v/%v, Table VIII means %v/%v", kind, s.F, s.R, (rw.F+ro.F)/2, (rw.R+ro.R)/2)
		}
		if s.O() == 0 || s.OStar() == 0 { // a component is missing or non-positive
			t.Errorf("%s: O = %v, O* = %v from %+v", kind, s.O(), s.OStar(), s)
		}
		if lag[i].Kind != kind || lag[i].IUD != evaluator.PaperIUDMixes[0] || s.C != lag[i].CScore {
			t.Errorf("%s: C = %v, §III-F's %v row reads %v", kind, s.C, lag[i].IUD, lag[i].CScore)
		}
	}
}
