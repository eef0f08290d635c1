package engine

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

func newTestDB(s *sim.Sim, t *testing.T) (*DB, *Table) {
	t.Helper()
	db := NewDB(s)
	tbl, err := db.CreateTable(testSchema(), 100, genOrder)
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestTxnCommitAppendsWAL(t *testing.T) {
	s := sim.New(epoch)
	db, tbl := newTestDB(s, t)
	s.Go("t", func(p *sim.Proc) {
		txn := db.Begin(p)
		id := tbl.NextAutoID()
		if _, err := txn.Insert(tbl, genOrder(nil, id)); err != nil {
			t.Error(err)
			return
		}
		if _, err := txn.Update(tbl, IntKey(5), Row{Int(5), Str("PAID")}); err != nil {
			t.Error(err)
			return
		}
		wantBytes := txn.WALBytes()
		recs, err := txn.Commit()
		if err != nil {
			t.Error(err)
			return
		}
		if len(recs) != 3 { // insert, update, commit
			t.Errorf("committed %d records, want 3", len(recs))
		}
		// WALBytes prices what the commit fsync makes durable: the logged
		// records with their undo images.
		gotBytes := 0
		for _, rec := range slices.Concat(slices.Collect(db.Log().Chunks())...) {
			gotBytes += rec.Size()
		}
		if gotBytes != wantBytes {
			t.Errorf("WALBytes = %d, log holds %d", wantBytes, gotBytes)
		}
		// Commit returns the log's own records, undo images included.
		for i := range recs {
			got, want := recs[i].Encode(nil), db.Log().Slot(recs[i].LSN).Encode(nil)
			if !bytes.Equal(got, want) {
				t.Errorf("published record %d differs from the log's record at LSN %d", i, recs[i].LSN)
			}
		}
		if recs[1].Prior == nil {
			t.Error("the update's published record lost its prior image")
		}
		if recs[2].Type != storage.RecCommit {
			t.Error("last record not commit")
		}
		if db.Log().DurableLSN() != db.Log().Head() {
			t.Error("commit did not move the fsync barrier to head")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if db.Log().Head() != 3 {
		t.Fatalf("log head = %d, want 3", db.Log().Head())
	}
	commits, aborts := db.Stats()
	if commits != 1 || aborts != 0 {
		t.Fatalf("stats = %d/%d", commits, aborts)
	}
	if db.Locks().HeldLocks() != 0 {
		t.Fatal("locks leaked after commit")
	}
}

func TestTxnReadOnlyCommitWritesNothing(t *testing.T) {
	s := sim.New(epoch)
	db, tbl := newTestDB(s, t)
	s.Go("t", func(p *sim.Proc) {
		txn := db.Begin(p)
		row, _, err := txn.Get(tbl, IntKey(42))
		if err != nil || row[0].Int() != 42 {
			t.Errorf("get: %v %v", row, err)
		}
		recs, err := txn.Commit()
		if err != nil || recs != nil {
			t.Errorf("read-only commit: %v %v", recs, err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if db.Log().Head() != 0 {
		t.Fatal("read-only txn wrote WAL")
	}
}

func TestTxnAbortUndoesEverything(t *testing.T) {
	s := sim.New(epoch)
	db, tbl := newTestDB(s, t)
	s.Go("t", func(p *sim.Proc) {
		txn := db.Begin(p)
		id := tbl.NextAutoID()
		txn.Insert(tbl, genOrder(nil, id))
		txn.Update(tbl, IntKey(5), Row{Int(5), Str("PAID")})
		txn.Delete(tbl, IntKey(6))
		if err := txn.Abort(); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if tbl.LiveRows() != 100 {
		t.Fatalf("live after abort = %d, want 100", tbl.LiveRows())
	}
	if _, _, ok := tbl.Get(IntKey(101)); ok {
		t.Fatal("aborted insert visible")
	}
	row, _, _ := tbl.Get(IntKey(5))
	if row[1].Str() != "NEW" {
		t.Fatal("aborted update visible")
	}
	if _, _, ok := tbl.Get(IntKey(6)); !ok {
		t.Fatal("aborted delete still hides row")
	}
	// Write-ahead logging puts the op records in the log before the txn
	// decides its fate; the abort appends a marker so recovery skips them.
	recs := slices.Concat(slices.Collect(db.Log().Chunks())...)
	if len(recs) != 4 || recs[3].Type != storage.RecAbort {
		t.Fatalf("log after abort: %d records, last %v; want 4 ending in ABORT", len(recs), recs[len(recs)-1].Type)
	}
	if db.Log().DurableLSN() != 0 {
		t.Fatal("abort moved the fsync barrier")
	}
	if db.Locks().HeldLocks() != 0 {
		t.Fatal("locks leaked after abort")
	}
}

func TestTxnDoneErrors(t *testing.T) {
	s := sim.New(epoch)
	db, tbl := newTestDB(s, t)
	s.Go("t", func(p *sim.Proc) {
		txn := db.Begin(p)
		txn.Commit()
		if _, _, err := txn.Get(tbl, IntKey(1)); !errors.Is(err, ErrTxnDone) {
			t.Errorf("get after commit: %v", err)
		}
		if _, err := txn.Insert(tbl, genOrder(nil, 999)); !errors.Is(err, ErrTxnDone) {
			t.Errorf("insert after commit: %v", err)
		}
		if _, err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
			t.Errorf("double commit: %v", err)
		}
		if err := txn.Abort(); !errors.Is(err, ErrTxnDone) {
			t.Errorf("abort after commit: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnIsolationWriterBlocksReader(t *testing.T) {
	s := sim.New(epoch)
	db, tbl := newTestDB(s, t)
	var readAt time.Duration
	var readStatus string
	s.Go("writer", func(p *sim.Proc) {
		txn := db.Begin(p)
		txn.Update(tbl, IntKey(5), Row{Int(5), Str("PAID")})
		p.Sleep(100 * time.Millisecond) // hold X lock across time
		txn.Commit()
	})
	s.Go("reader", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		txn := db.Begin(p)
		row, _, err := txn.Get(tbl, IntKey(5))
		if err != nil {
			t.Error(err)
			return
		}
		readAt = p.Elapsed()
		readStatus = row[1].Str()
		txn.Commit()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if readAt != 100*time.Millisecond {
		t.Fatalf("reader unblocked at %v, want 100ms (after writer commit)", readAt)
	}
	if readStatus != "PAID" {
		t.Fatalf("reader saw %q, want committed PAID", readStatus)
	}
}

func TestReplicaApplyFollowsPrimary(t *testing.T) {
	s := sim.New(epoch)
	primary, ptbl := newTestDB(s, t)
	replica := NewDB(s)
	rtbl, err := replica.CreateTable(testSchema(), 100, genOrder)
	if err != nil {
		t.Fatal(err)
	}
	s.Go("t", func(p *sim.Proc) {
		txn := primary.Begin(p)
		id := ptbl.NextAutoID()
		txn.Insert(ptbl, genOrder(nil, id))
		txn.Update(ptbl, IntKey(5), Row{Int(5), Str("PAID")})
		txn.Delete(ptbl, IntKey(6))
		txn.Commit()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range slices.Concat(slices.Collect(primary.Log().Chunks())...) {
		if err := replica.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Replica state must match primary for every touched key.
	for _, id := range []int64{5, 6, 101} {
		pr, pPage, pOK := ptbl.Get(IntKey(id))
		rr, rPage, rOK := rtbl.Get(IntKey(id))
		if pOK != rOK {
			t.Fatalf("id %d: visibility primary=%v replica=%v", id, pOK, rOK)
		}
		if pOK && (!pr.Equal(rr) || pPage != rPage) {
			t.Fatalf("id %d: rows/pages diverge: %v@%v vs %v@%v", id, pr, pPage, rr, rPage)
		}
	}
	if rtbl.LiveRows() != ptbl.LiveRows() {
		t.Fatalf("live rows diverge: %d vs %d", rtbl.LiveRows(), ptbl.LiveRows())
	}
	// Replica lock-free read API.
	row, _, ok := replica.ReadInto("orders", IntKey(5), nil)
	if !ok || row[1].Str() != "PAID" {
		t.Fatalf("replica read: %v %v", row, ok)
	}
}

func TestApplyUnknownTableErrors(t *testing.T) {
	s := sim.New(epoch)
	db := NewDB(s)
	err := db.Apply(storage.Record{Type: storage.RecInsert, Table: 99})
	if err == nil {
		t.Fatal("apply to unknown table succeeded")
	}
	// Non-data records are no-ops even for unknown tables.
	if err := db.Apply(storage.Record{Type: storage.RecCommit, Table: 99}); err != nil {
		t.Fatal(err)
	}
}

func TestCreateTableDuplicateName(t *testing.T) {
	s := sim.New(epoch)
	db, _ := newTestDB(s, t)
	if _, err := db.CreateTable(testSchema(), 0, nil); err == nil {
		t.Fatal("duplicate table name accepted")
	}
	if db.Table("orders") == nil || db.Table("nope") != nil {
		t.Fatal("Table lookup")
	}
}

func TestTxnGetMissingRowReturnsPageForCharging(t *testing.T) {
	s := sim.New(epoch)
	db, tbl := newTestDB(s, t)
	s.Go("t", func(p *sim.Proc) {
		txn := db.Begin(p)
		tbl.Delete(IntKey(7), nil) // tombstone outside txn for test setup
		_, page, err := txn.Get(tbl, IntKey(7))
		if !errors.Is(err, ErrRowNotFound) {
			t.Errorf("err = %v", err)
		}
		if page != tbl.PageOfBase(7) {
			t.Errorf("missing-row probe page = %v", page)
		}
		txn.Abort()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTransfersPreserveInvariant(t *testing.T) {
	// Credit-transfer stress: total credit across accounts is invariant
	// under concurrent committed transfers (atomicity + isolation).
	s := sim.New(epoch)
	db := NewDB(s)
	schema := &Schema{
		Name:        "customer",
		Cols:        []Column{{Name: "C_ID", Kind: KindInt}, {Name: "C_CREDIT", Kind: KindFloat}},
		KeyCols:     []int{0},
		AvgRowBytes: 32,
	}
	tbl, err := db.CreateTable(schema, 10, func(dst Row, id int64) Row {
		return append(dst[:0], Int(id), Float(100))
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	for w := 0; w < workers; w++ {
		w := w
		s.Go("transfer", func(p *sim.Proc) {
			for i := 0; i < 50; i++ {
				// Move 1 credit from account a to account b; lock in id
				// order to stay deadlock-free.
				a := int64((w+i)%10) + 1
				b := int64((w+i+1)%10) + 1
				if a > b {
					a, b = b, a
				}
				if a == b {
					continue
				}
				txn := db.Begin(p)
				ra, _, err := txn.Get(tbl, IntKey(a))
				if err != nil {
					txn.Abort()
					continue
				}
				rb, _, err := txn.Get(tbl, IntKey(b))
				if err != nil {
					txn.Abort()
					continue
				}
				txn.Update(tbl, IntKey(a), Row{Int(a), Float(ra[1].Float() - 1)})
				txn.Update(tbl, IntKey(b), Row{Int(b), Float(rb[1].Float() + 1)})
				if i%7 == 0 {
					txn.Abort() // aborts must not break the invariant
				} else {
					txn.Commit()
				}
				p.Sleep(time.Millisecond)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var total float64
	tbl.VisibleScan(func(_ Key, r Row) bool {
		total += r[1].Float()
		return true
	})
	if total != 1000 {
		t.Fatalf("credit total = %v, want 1000 (conservation violated)", total)
	}
}

// TestAbortRestoresDeltaOverlayExactly: rollback must leave the delta
// overlay byte-identical to its pre-transaction state, not merely restore
// the visible values. Materializing a base row's before-image as a delta
// entry on abort would diverge the overlay from replicas — they never hear
// about aborted writes — and fail the convergence invariant after a
// fail-over freezes the aborting primary's delta.
func TestAbortRestoresDeltaOverlayExactly(t *testing.T) {
	s := sim.New(epoch)
	db, tbl := newTestDB(s, t)
	s.Go("t", func(p *sim.Proc) {
		// First-ever touches of base-resident rows, then abort: the overlay
		// must return to empty.
		txn := db.Begin(p)
		txn.Update(tbl, IntKey(7), Row{Int(7), Str("PAID")})
		txn.Delete(tbl, IntKey(8))
		txn.Abort()
		if n := tbl.DeltaLen(); n != 0 {
			t.Errorf("delta entries after aborting first-touch writes = %d, want 0", n)
		}

		// A committed delete of a delta-only row leaves a tombstone; an
		// aborted re-insert over it must put the tombstone back, not drop it.
		id := tbl.NextAutoID()
		txn = db.Begin(p)
		txn.Insert(tbl, genOrder(nil, id))
		txn.Commit()
		txn = db.Begin(p)
		txn.Delete(tbl, IntKey(id))
		txn.Commit()
		before := tbl.DeltaLen()
		txn = db.Begin(p)
		txn.Insert(tbl, genOrder(nil, id))
		txn.Abort()
		if n := tbl.DeltaLen(); n != before {
			t.Errorf("delta entries after aborted re-insert = %d, want %d (tombstone dropped)", n, before)
		}
		if _, _, ok := tbl.Get(IntKey(id)); ok {
			t.Error("aborted re-insert visible over tombstone")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
