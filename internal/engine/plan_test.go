package engine

import (
	"math/rand"
	"testing"
	"time"

	"cloudybench/internal/sim"
)

// TestPlannerSelectivityRule pins the plan choice: narrow ranges go through
// the index, wide ranges and unindexed columns fall back to the sequential
// scan.
func TestPlannerSelectivityRule(t *testing.T) {
	_, _, tbl, _ := newIndexedDB(t, 100) // groups 0..9
	cases := []struct {
		lo, hi int64
		want   PlanKind
	}{
		{3, 3, PlanIndexScan}, // point
		{0, 1, PlanIndexScan}, // 2/10 = 0.2 <= 0.25
		{0, 4, PlanFullScan},  // 5/10 = 0.5
		{0, 9, PlanFullScan},  // whole domain
		{7, 2, PlanIndexScan}, // empty range estimates 0
	}
	for _, c := range cases {
		res, err := tbl.SelectRange(1, Int(c.lo), Int(c.hi), 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != c.want {
			t.Fatalf("range [%d,%d]: plan %v, want %v", c.lo, c.hi, res.Plan, c.want)
		}
	}
	ixScans, fullScans := tbl.ScanStats()
	if ixScans == 0 || fullScans == 0 {
		t.Fatalf("scan stats not counted: %d/%d", ixScans, fullScans)
	}
	if res, _ := tbl.SelectRange(2, Float(0), Float(1), 0); res.Plan != PlanFullScan {
		t.Fatal("unindexed column did not full-scan")
	}
}

// TestPlansAgreeByteForByte is the in-package differential check: on random
// mutated tables, the plan the planner picks and the plan it did not must
// return byte-identical ordered result sets for random ranges and limits,
// as CrossCheck compares them.
func TestPlansAgreeByteForByte(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, db, tbl, _ := newIndexedDB(t, 80)
		s.Go("mutate", func(p *sim.Proc) {
			for i := 0; i < 150; i++ {
				txn := db.Begin(p)
				id := int64(r.Intn(160)) + 1
				switch r.Intn(3) {
				case 0:
					txn.Insert(tbl, Row{Int(id), Int(r.Int63n(10)), Float(1), Str("x")})
				case 1:
					txn.Update(tbl, IntKey(id), Row{Int(id), Int(r.Int63n(10)), Float(2), Str("y")})
				case 2:
					txn.Delete(tbl, IntKey(id))
				}
				if r.Intn(4) == 0 {
					txn.Abort()
				} else {
					txn.Commit()
				}
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 40; q++ {
			lo := r.Int63n(10)
			hi := lo + r.Int63n(10)
			limit := 0
			if r.Intn(2) == 0 {
				limit = 1 + r.Intn(5)
			}
			res, err := tbl.SelectRange(1, Int(lo), Int(hi), limit)
			if err != nil {
				t.Fatal(err)
			}
			if checked, err := tbl.CrossCheck(res, 1, Int(lo), Int(hi), limit); !checked || err != nil {
				t.Fatalf("seed %d: checked=%v: %v", seed, checked, err)
			}
		}
	}
}

// TestTxnScanRangeLocksAndFilters checks the transactional scan takes S
// locks on returned rows (blocking a writer) and is usable mid-txn.
func TestTxnScanRangeLocksAndFilters(t *testing.T) {
	s, db, tbl, _ := newIndexedDB(t, 30)
	var scanned int
	var writerBlocked bool
	s.Go("scanner", func(p *sim.Proc) {
		txn := db.Begin(p)
		res, err := txn.ScanRange(tbl, 1, Int(3), Int(3), 0)
		if err != nil {
			t.Errorf("scan: %v", err)
			return
		}
		scanned = len(res.Rows)
		p.Sleep(50 * time.Millisecond) // hold locks
		txn.Commit()
	})
	s.Go("writer", func(p *sim.Proc) {
		p.Sleep(10 * time.Millisecond)
		txn := db.Begin(p)
		t0 := p.Elapsed()
		if _, err := txn.Update(tbl, IntKey(3), Row{Int(3), Int(5), Float(0), Str("w")}); err != nil {
			txn.Abort()
			return
		}
		writerBlocked = p.Elapsed()-t0 >= 30*time.Millisecond
		txn.Commit()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if scanned != 3 { // ids 3, 13, 23
		t.Fatalf("scanned %d rows, want 3", scanned)
	}
	if !writerBlocked {
		t.Fatal("writer was not blocked by the scan's shared locks")
	}
	indexIsProjection(t, tbl)
}
