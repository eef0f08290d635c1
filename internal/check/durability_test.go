package check

import (
	"slices"
	"strings"
	"testing"
	"time"

	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// crashRecover crashes db's log with the given torn mode and recovers a
// fresh salesDB from it, carrying the recorder onto the rebuilt instance (as
// node recovery does).
func crashRecover(t *testing.T, s *sim.Sim, db *engine.DB, torn storage.TornMode) *engine.DB {
	t.Helper()
	tail, _ := db.Log().Crash(torn)
	fresh := salesDB(s)
	if _, err := fresh.Recover(db.Log().Snapshot(), tail); err != nil {
		t.Fatalf("recover: %v", err)
	}
	fresh.SetObserver(db.Observer())
	return fresh
}

// resurrectLosers re-applies, through the replica path (which fires no
// observer hook), the logged after-images of every data record whose txn
// the log neither commits nor aborts at the crash: the state a recovery that
// skipped its undo pass would leave. It returns how many it applied.
func resurrectLosers(t *testing.T, snap storage.LogSnapshot, db *engine.DB) int {
	t.Helper()
	lg := storage.NewLog()
	lg.Restore(snap)
	recs := slices.Concat(slices.Collect(lg.Chunks())...)
	ended := make(map[uint64]bool)
	for i := range recs {
		if recs[i].Type == storage.RecCommit || recs[i].Type == storage.RecAbort {
			ended[recs[i].Txn] = true
		}
	}
	var losers []storage.Record
	for i := range recs {
		switch recs[i].Type {
		case storage.RecInsert, storage.RecUpdate, storage.RecDelete:
			if !ended[recs[i].Txn] {
				losers = append(losers, recs[i])
			}
		}
	}
	if err := db.ApplyBatch(losers); err != nil {
		t.Fatalf("resurrect: %v", err)
	}
	return len(losers)
}

// crashHistory drives committed payments plus one in-flight transaction
// that dies with the crash, returning the recorder and the crashed DB.
func crashHistory(t *testing.T, s *sim.Sim) (*Recorder, *engine.DB) {
	t.Helper()
	db := salesDB(s)
	rec := NewRecorder()
	db.SetObserver(rec)
	s.Go("txns", func(p *sim.Proc) {
		payOrder(t, p, db, 1, 0)
		payOrder(t, p, db, 2, 0)
		// In-flight at the crash: marks order 3 PAID but never commits —
		// the client never got an ack, so recovery must erase it.
		orders := db.Table(core.TableOrders)
		tx := db.Begin(p)
		row, _, err := tx.GetForUpdate(orders, engine.IntKey(3))
		if err != nil {
			t.Errorf("get: %v", err)
			return
		}
		upd := row.Clone()
		upd[4] = engine.Str(core.StatusPaid)
		if _, err := tx.Update(orders, engine.IntKey(3), upd); err != nil {
			t.Errorf("update: %v", err)
			return
		}
		// A committed successor group-commits the loser's record into the
		// durable log, so honest recovery has real undo work to do.
		payOrder(t, p, db, 4, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return rec, db
}

func TestDurabilityPassesAfterHonestRecovery(t *testing.T) {
	s := sim.New(time.Unix(0, 0))
	rec, db := crashHistory(t, s)
	recovered := crashRecover(t, s, db, storage.TornNone)

	if v := Durability("rw", rec, recovered); !v.Passed {
		t.Fatalf("durability failed on honest recovery: %v", v)
	} else if v.Checked == 0 {
		t.Fatal("durability checked nothing")
	}
	if v := NoResurrection("rw", rec, recovered); !v.Passed {
		t.Fatalf("no-resurrection failed on honest recovery: %v", v)
	} else if v.Checked == 0 {
		t.Fatal("no-resurrection checked nothing (no loser writes recorded?)")
	}
}

// TestNoResurrectionCatchesSkippedUndo is a teeth test: after honest
// recovery it re-applies the in-flight transaction's logged PAID image (the
// state a recovery that skipped its undo pass would leave), and
// NoResurrection must name it a resurrected write.
func TestNoResurrectionCatchesSkippedUndo(t *testing.T) {
	s := sim.New(time.Unix(0, 0))
	rec, db := crashHistory(t, s)
	broken := crashRecover(t, s, db, storage.TornNone)
	if resurrectLosers(t, db.Log().Snapshot(), broken) == 0 {
		t.Fatal("the crash left no loser records; teeth test is vacuous")
	}

	v := NoResurrection("rw", rec, broken)
	if v.Passed {
		t.Fatal("no-resurrection passed despite skipped undo")
	}
	if !strings.Contains(v.Details[0], "resurrected write") {
		t.Fatalf("unexpected detail: %q", v.Details[0])
	}
	if d := Durability("rw", rec, broken); d.Passed {
		t.Fatal("durability passed despite skipped undo")
	}
}

// TestDurabilityCatchesLostCommit is a teeth test: dropping a committed
// transaction's effects (simulated by recovering from a log truncated
// before its records) must fail Durability.
func TestDurabilityCatchesLostCommit(t *testing.T) {
	s := sim.New(time.Unix(0, 0))
	db := salesDB(s)
	rec := NewRecorder()
	db.SetObserver(rec)
	s.Go("txns", func(p *sim.Proc) {
		payOrder(t, p, db, 1, 0)
		payOrder(t, p, db, 2, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Rebuild from a log that never saw the second payment.
	full := slices.Concat(slices.Collect(db.Log().Chunks())...)
	liar := storage.NewLog()
	seen := 0
	for i := range full {
		if full[i].Type == storage.RecCommit {
			seen++
		}
		liar.Append(full[i])
		if seen == 1 {
			break
		}
	}
	liar.Sync()
	fresh := salesDB(s)
	if _, err := fresh.Recover(liar.Snapshot(), nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	v := Durability("rw", rec, fresh)
	if v.Passed {
		t.Fatal("durability passed despite a dropped acknowledged commit")
	}
}
