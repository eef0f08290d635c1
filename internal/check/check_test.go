package check

import (
	"strings"
	"testing"
	"time"

	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/replication"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// salesDB builds a tiny sales-schema database: 4 customers, 4 orders
// (amounts 10.00/20.00/..., all NEW), 8 base orderlines.
func salesDB(s *sim.Sim) *engine.DB {
	db := engine.NewDB(s)
	db.MustCreateTable(core.CustomerSchema(), 4, func(dst engine.Row, id int64) engine.Row {
		return append(dst[:0], engine.Int(id), engine.Str("c"), engine.Float(100), engine.Int(0))
	})
	db.MustCreateTable(core.OrdersSchema(), 4, func(dst engine.Row, id int64) engine.Row {
		return append(dst[:0], engine.Int(id), engine.Int(id), engine.Float(float64(id)*10), engine.Int(0), engine.Str(core.StatusNew), engine.Int(0))
	})
	db.MustCreateTable(core.OrderlineSchema(), 8, func(dst engine.Row, id int64) engine.Row {
		return append(dst[:0], engine.Int(id), engine.Int((id-1)/2+1), engine.Str("sku"), engine.Int(1), engine.Float(5))
	})
	return db
}

// payOrder runs the T2 shape: mark order oid PAID, credit its customer by
// the order amount plus skim (zero skim conserves money).
func payOrder(t *testing.T, p *sim.Proc, db *engine.DB, oid int64, skim float64) {
	t.Helper()
	orders := db.Table(core.TableOrders)
	customers := db.Table(core.TableCustomer)
	tx := db.Begin(p)
	row, _, err := tx.GetForUpdate(orders, engine.IntKey(oid))
	if err != nil {
		t.Fatalf("get order: %v", err)
	}
	upd := row.Clone()
	upd[4] = engine.Str(core.StatusPaid)
	if _, err := tx.Update(orders, engine.IntKey(oid), upd); err != nil {
		t.Fatalf("update order: %v", err)
	}
	crow, _, err := tx.GetForUpdate(customers, engine.IntKey(row[1].Int()))
	if err != nil {
		t.Fatalf("get customer: %v", err)
	}
	cupd := crow.Clone()
	cupd[2] = engine.Float(crow[2].Float() + row[2].Float() + skim)
	if _, err := tx.Update(customers, engine.IntKey(row[1].Int()), cupd); err != nil {
		t.Fatalf("update customer: %v", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
}

func TestInvariantsPassOnCleanHistory(t *testing.T) {
	s := sim.New(time.Unix(0, 0))
	db := salesDB(s)
	rec := NewRecorder()
	db.SetObserver(rec)

	s.Go("txns", func(p *sim.Proc) {
		payOrder(t, p, db, 1, 0)
		payOrder(t, p, db, 3, 0)

		ol := db.Table(core.TableOrderline)
		tx := db.Begin(p)
		if _, err := tx.Insert(ol, engine.Row{engine.Int(ol.NextAutoID()), engine.Int(2), engine.Str("sku"), engine.Int(1), engine.Float(7)}); err != nil {
			t.Errorf("insert: %v", err)
		}
		tx.Commit()

		tx = db.Begin(p)
		if _, err := tx.Delete(ol, engine.IntKey(5)); err != nil {
			t.Errorf("delete: %v", err)
		}
		tx.Commit()

		// An aborted payment must not count toward any invariant.
		orders := db.Table(core.TableOrders)
		tx = db.Begin(p)
		row, _, _ := tx.GetForUpdate(orders, engine.IntKey(2))
		upd := row.Clone()
		upd[4] = engine.Str(core.StatusPaid)
		tx.Update(orders, engine.IntKey(2), upd)
		tx.Abort()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}

	for _, v := range []Verdict{Conservation(rec), RowBalance(rec, db), ReadCommitted(rec)} {
		if !v.Passed {
			t.Errorf("%s: %s", v.Name, v)
		}
		if v.Checked == 0 {
			t.Errorf("%s: checked nothing", v.Name)
		}
	}
}

func TestConservationCatchesSkimmedCredit(t *testing.T) {
	s := sim.New(time.Unix(0, 0))
	db := salesDB(s)
	rec := NewRecorder()
	db.SetObserver(rec)

	s.Go("txns", func(p *sim.Proc) {
		payOrder(t, p, db, 1, 0.01) // credits one cent too much
	})
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	v := Conservation(rec)
	if v.Passed {
		t.Fatal("conservation passed despite a skimmed credit")
	}
	if !strings.Contains(v.String(), "credited") {
		t.Errorf("unexpected detail: %s", v)
	}
}

func TestRowBalanceCatchesLostWrite(t *testing.T) {
	s := sim.New(time.Unix(0, 0))
	db := salesDB(s)
	rec := NewRecorder()
	db.SetObserver(rec)

	s.Go("txns", func(p *sim.Proc) {
		ol := db.Table(core.TableOrderline)
		tx := db.Begin(p)
		tx.Insert(ol, engine.Row{engine.Int(ol.NextAutoID()), engine.Int(1), engine.Str("sku"), engine.Int(1), engine.Float(1)})
		tx.Commit()
	})
	if err := s.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}

	// Fabricate a second committed insert that never reached the table — as
	// if the engine lost the write.
	rec.OnWrite(0, 999, core.TableOrderline, engine.IntKey(12345), nil,
		engine.Row{engine.Int(12345), engine.Int(1), engine.Str("sku"), engine.Int(1), engine.Float(1)})
	rec.OnCommit(0, 999)

	if v := RowBalance(rec, db); v.Passed {
		t.Fatal("row-balance passed despite a lost committed insert")
	}
}

func TestReadCommittedCatchesDirtyRead(t *testing.T) {
	rec := NewRecorder()
	key := engine.IntKey(1)
	v1 := engine.Row{engine.Int(1), engine.Str("v1")}
	v2 := engine.Row{engine.Int(1), engine.Str("v2")}

	// Txn 1 writes v2 but has not committed; txn 2 reads v2 anyway (a dirty
	// read that strict 2PL must make impossible).
	rec.OnRead(0, 1, "t", key, v1)
	rec.OnWrite(0, 1, "t", key, v1, v2)
	rec.OnRead(0, 2, "t", key, v2)
	rec.OnCommit(0, 1)
	rec.OnCommit(0, 2)

	if v := ReadCommitted(rec); v.Passed {
		t.Fatal("read-committed passed despite a dirty read")
	}

	// Control: the same history with txn 2 reading the committed value.
	clean := NewRecorder()
	clean.OnRead(0, 1, "t", key, v1)
	clean.OnWrite(0, 1, "t", key, v1, v2)
	clean.OnCommit(0, 1)
	clean.OnRead(0, 2, "t", key, v2)
	clean.OnCommit(0, 2)
	if v := ReadCommitted(clean); !v.Passed {
		t.Fatalf("clean history failed: %s", v)
	}
}

func salesInto(db *engine.DB) {
	db.MustCreateTable(core.OrderlineSchema(), 8, func(dst engine.Row, id int64) engine.Row {
		return append(dst[:0], engine.Int(id), engine.Int((id-1)/2+1), engine.Str("sku"), engine.Int(1), engine.Float(5))
	})
}

// TestConvergenceHasTeeth replicates ten inserts, then, with lose set, has
// the replica lose the last one: a delete of its key applied on the replica
// alone, through the same DB.ApplyBatch path replay uses. Convergence must
// pass the honest pair and fail the doctored one.
func TestConvergenceHasTeeth(t *testing.T) {
	run := func(lose bool) Verdict {
		s := sim.New(time.Unix(0, 0))
		cfg := node.Config{VCores: 4, MemoryBytes: 1 << 24, OpCPU: time.Microsecond, TxnCPU: time.Microsecond}
		cfg.Name = "rw"
		rw := node.New(s, cfg, node.NullBackend{})
		salesInto(rw.DB)
		cfg.Name = "ro"
		ro := node.New(s, cfg, node.NullBackend{})
		salesInto(ro.DB)
		st := replication.NewStream(s, replication.Config{
			Name:      "test-stream",
			PerRecord: 10 * time.Microsecond,
		}, ro)
		rw.OnCommit = func(p *sim.Proc, recs []storage.Record) { st.PublishFrom(p, rw.DB.Log(), recs) }

		s.Go("writer", func(p *sim.Proc) {
			ol := rw.DB.Table(core.TableOrderline)
			for i := 0; i < 10; i++ {
				tx, err := rw.Begin(p)
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				if err := tx.Insert(ol, engine.Row{engine.Int(ol.NextAutoID()), engine.Int(1), engine.Str("sku"), engine.Int(1), engine.Float(1)}); err != nil {
					t.Errorf("insert: %v", err)
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("commit: %v", err)
				}
			}
			for st.Backlog() > 0 {
				p.Sleep(time.Millisecond)
			}
			st.Stop()
		})
		if err := s.Run(); err != nil {
			t.Fatalf("sim: %v", err)
		}
		if lose {
			ol := ro.DB.Table(core.TableOrderline)
			lost := storage.Record{Type: storage.RecDelete, Table: ol.ID, Key: engine.IntKey(ol.MaxID())}
			if err := ro.DB.ApplyBatch([]storage.Record{lost}); err != nil {
				t.Fatalf("apply: %v", err)
			}
		}
		return Convergence("ro", rw.DB, ro.DB)
	}

	if v := run(false); !v.Passed {
		t.Errorf("healthy stream did not converge: %s", v)
	}
	if v := run(true); v.Passed {
		t.Error("convergence passed despite a replica that lost a replicated insert")
	}
}
