package engine_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// This file is the exported-API half of the recovery-equivalence
// differential test: it uses the planner's own plan comparator
// (Table.CrossCheck, which node.Node.ScanRead samples in every suite run) to
// prove that a recovered node's secondary indexes are indistinguishable from
// the full-scan oracle, and that index-plan reads on the recovered node match
// the same reads on an independent committed-prefix replay.

func recoverySchema() *engine.Schema {
	return &engine.Schema{
		Name: "items",
		Cols: []engine.Column{
			{Name: "IT_ID", Kind: engine.KindInt},
			{Name: "IT_GROUP", Kind: engine.KindInt},
			{Name: "IT_PRICE", Kind: engine.KindFloat},
			{Name: "IT_TAG", Kind: engine.KindString},
		},
		KeyCols:     []int{0},
		AvgRowBytes: 32,
	}
}

func recoveryRow(dst engine.Row, id int64) engine.Row {
	return append(dst[:0],
		engine.Int(id),
		engine.Int(id%12),
		engine.Float(float64(id%97)/4),
		engine.Str(fmt.Sprintf("t%d", id%8)),
	)
}

func newRecoveryDB(t *testing.T) (*sim.Sim, *engine.DB, *engine.Table) {
	t.Helper()
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db := engine.NewDB(s)
	tbl := db.MustCreateTable(recoverySchema(), 60, recoveryRow)
	db.MustCreateIndex("items", "ix_items_group", "IT_GROUP")
	db.MustCreateIndex("items", "ix_items_tag", "IT_TAG")
	return s, db, tbl
}

// TestRecoveryDifftestIndexEquivalence crashes a node mid-transaction with a
// torn tail, recovers a fresh instance, and drives the plan comparator over
// every indexed column of the recovered table: the index plan must be
// byte-identical to the full-scan oracle, and both must match an independent
// replay of only the committed records.
func TestRecoveryDifftestIndexEquivalence(t *testing.T) {
	s, db, tbl := newRecoveryDB(t)
	r := rand.New(rand.NewSource(99))
	s.Go("load", func(p *sim.Proc) {
		for i := 0; i < 120; i++ {
			txn := db.Begin(p)
			id := int64(r.Intn(150)) + 20
			switch r.Intn(3) {
			case 0:
				txn.Insert(tbl, recoveryRow(nil, id))
			case 1:
				txn.Update(tbl, engine.IntKey(id), engine.Row{engine.Int(id), engine.Int(r.Int63n(12)), engine.Float(1), engine.Str("upd")})
			case 2:
				txn.Delete(tbl, engine.IntKey(id))
			}
			if r.Intn(6) == 0 {
				txn.Abort()
			} else {
				txn.Commit()
			}
		}
		// Leave a transaction in flight across the crash; an earlier commit
		// has already dragged nothing of it to disk, so give it a committed
		// successor to group-commit its first record into durability.
		loser := db.Begin(p)
		loser.Insert(tbl, engine.Row{engine.Int(900), engine.Int(5), engine.Float(9), engine.Str("loser")})
		wtxn := db.Begin(p)
		wtxn.Update(tbl, engine.IntKey(25), engine.Row{engine.Int(25), engine.Int(6), engine.Float(3), engine.Str("final")})
		wtxn.Commit()
		loser.Update(tbl, engine.IntKey(900), engine.Row{engine.Int(900), engine.Int(5), engine.Float(9), engine.Str("tail")})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	tail, _ := db.Log().Crash(storage.TornFlip)
	snap := db.Log().Snapshot()

	// Recover a fresh instance.
	_, rdb, rtbl := newRecoveryDB(t)
	st, err := rdb.Recover(snap, tail)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st.Losers == 0 {
		t.Fatal("workload left no losers; test is vacuous")
	}

	// Independent oracle: replay only committed records via the replica path.
	_, odb, otbl := newRecoveryDB(t)
	lg := storage.NewLog()
	lg.Restore(snap)
	recs := slices.Concat(slices.Collect(lg.Chunks())...)
	committed := make(map[uint64]bool)
	for i := range recs {
		if recs[i].Type == storage.RecCommit {
			committed[recs[i].Txn] = true
		}
	}
	for i := range recs {
		if committed[recs[i].Txn] {
			if err := odb.Apply(recs[i]); err != nil {
				t.Fatalf("oracle apply: %v", err)
			}
		}
	}

	// indexRead reads a range through the planner and cross-checks it
	// against the plan the planner did not pick on the same table.
	indexRead := func(tbl *engine.Table, col int, lo, hi engine.Value) []engine.Row {
		t.Helper()
		res, err := tbl.SelectRange(col, lo, hi, 0)
		if err != nil {
			t.Fatalf("read col %d: %v", col, err)
		}
		checked, err := tbl.CrossCheck(res, col, lo, hi, 0)
		if !checked {
			t.Fatalf("col %d: no second plan to cross-check", col)
		}
		if err != nil {
			t.Fatalf("index plan diverged from full-scan oracle after recovery: %v", err)
		}
		return res.Rows
	}
	ranges := []struct {
		col    int
		lo, hi engine.Value
	}{
		{1, engine.Int(0), engine.Int(12)},
		{3, engine.Str(""), engine.Str("zz")},
	}
	for _, q := range ranges {
		rRows := indexRead(rtbl, q.col, q.lo, q.hi)
		oRows := indexRead(otbl, q.col, q.lo, q.hi)
		if len(rRows) != len(oRows) {
			t.Fatalf("col %d: recovered index returned %d rows, oracle replay %d", q.col, len(rRows), len(oRows))
		}
		for i := range rRows {
			rv := engine.EncodeRow(nil, rRows[i])
			ov := engine.EncodeRow(nil, oRows[i])
			if !bytes.Equal(rv, ov) {
				t.Fatalf("col %d row %d: recovered %v, oracle %v", q.col, i, rRows[i], oRows[i])
			}
		}
	}
}

// TestCrossCheckNamesTheFirstDivergence doctors a served scan result — a row
// dropped, a primary key swapped, a row rewritten — and requires the plan
// comparator to name each divergence, and to leave the table's ScanStats as
// the planner left them.
func TestCrossCheckNamesTheFirstDivergence(t *testing.T) {
	_, _, tbl := newRecoveryDB(t)
	lo, hi := engine.Int(2), engine.Int(4) // 3 of 12 groups: the planner picks the index
	serve := func() engine.ScanResult {
		res, err := tbl.SelectRange(1, lo, hi, 0)
		if err != nil || res.Plan != engine.PlanIndexScan || len(res.Rows) < 2 {
			t.Fatalf("index read: %v, %d rows, %v", res.Plan, len(res.Rows), err)
		}
		return res
	}
	for _, c := range []struct {
		name   string
		doctor func(*engine.ScanResult)
		want   string
	}{
		{"dropped row", func(r *engine.ScanResult) { r.PKs, r.Rows = r.PKs[1:], r.Rows[1:] }, "index returned 14 rows, oracle 15"},
		{"swapped pk", func(r *engine.ScanResult) { r.PKs[0], r.PKs[1] = r.PKs[1], r.PKs[0] }, "pk 0 differs"},
		{"rewritten row", func(r *engine.ScanResult) { r.Rows[0] = recoveryRow(nil, 1000) }, "differs between plans"},
	} {
		res := serve()
		c.doctor(&res)
		ix, full := tbl.ScanStats()
		checked, err := tbl.CrossCheck(res, 1, lo, hi, 0)
		if !checked || err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: checked=%v err=%v, want an error containing %q", c.name, checked, err, c.want)
		}
		if ix2, full2 := tbl.ScanStats(); ix2 != ix || full2 != full {
			t.Errorf("%s: CrossCheck moved ScanStats from %d/%d to %d/%d", c.name, ix, full, ix2, full2)
		}
	}
	if checked, err := tbl.CrossCheck(serve(), 2, engine.Float(0), engine.Float(1), 0); checked || err != nil {
		t.Errorf("unindexed column: checked=%v err=%v, want false, nil", checked, err)
	}
}
