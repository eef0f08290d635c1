package engine

import (
	"fmt"
	"testing"
	"time"

	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// The point-access path's allocation floors (DESIGN.md §15). A transaction
// may allocate what the database keeps — the row a write hands over — and
// nothing else: no key, no base-row image, no lock-table entry, no undo or
// WAL bookkeeping beyond slab chunks amortized to well under one per call
// (testing.AllocsPerRun reports whole allocations per run).
func TestPointAccessAllocationFloors(t *testing.T) {
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db := NewDB(s)
	orders := db.MustCreateTable(benchSchema(), 10_000, benchGen)
	lines := db.MustCreateTable(&Schema{
		Name:        "bench_lines",
		Cols:        benchSchema().Cols,
		KeyCols:     []int{0},
		AvgRowBytes: 64,
	}, 0, nil)
	s.Go("gate", func(p *sim.Proc) {
		key := make([]byte, 0, 16)
		row := make(Row, 0, len(orders.Schema.Cols))
		id := int64(0)
		gate := func(name string, want float64, f func()) {
			if got := testing.AllocsPerRun(2000, f); got != want {
				t.Errorf("%s: %v allocs per run, want %v", name, got, want)
			}
		}
		gate("Txn.GetInto+Commit", 0, func() {
			id++
			txn := db.Begin(p)
			key = AppendIntKey(key[:0], id)
			if _, _, err := txn.GetInto(orders, key, row); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		// T2-shaped: lock and read a base row, write back a modified copy.
		// The copy is the table's to keep: one allocation.
		overlaid := id + 1
		gate("update txn", 1, func() {
			id++
			txn := db.Begin(p)
			key = AppendIntKey(key[:0], id)
			old, _, err := txn.GetForUpdateInto(orders, key, row)
			if err != nil {
				t.Fatal(err)
			}
			upd := old.Clone()
			upd[2] = Str("paid")
			if _, err := txn.Update(orders, key, upd); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		// The same, on the rows the gate above left in the overlay: the write
		// goes through the stored value's address, and the row is again the
		// only allocation.
		next := overlaid
		gate("update txn, overlay row", 1, func() {
			txn := db.Begin(p)
			key = AppendIntKey(key[:0], next)
			next++
			old, _, err := txn.GetForUpdateInto(orders, key, row)
			if err != nil {
				t.Fatal(err)
			}
			upd := old.Clone()
			upd[2] = Str("shipped")
			if _, err := txn.Update(orders, key, upd); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		// Tombstoning an overlay row keeps nothing new: no allocation.
		next = overlaid
		gate("delete txn, overlay row", 0, func() {
			txn := db.Begin(p)
			key = AppendIntKey(key[:0], next)
			next++
			if _, err := txn.Delete(orders, key); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		// T1-shaped: insert a fresh row under a new key. The row is the
		// table's to keep: one allocation.
		gate("insert txn", 1, func() {
			id++
			txn := db.Begin(p)
			if _, err := txn.Insert(lines, Row{Int(id), Str("sku"), Str("pending"), Float(1)}); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if db.Locks().HeldLocks() != 0 {
		t.Fatal("locks leaked")
	}
}

// benchGen is benchRow without the formatted name, so the generator itself
// allocates nothing into a row with capacity.
func benchGen(dst Row, id int64) Row {
	return append(dst[:0], Int(id), Str("name"), Str("pending"), Float(float64(id)*0.25))
}

// The delta store's allocation floors (DESIGN.md §15). A warm tree grows its
// node slab and key arena a chunk at a time, so a stream of fresh inserts
// allocates well under once per hundred and a lookup never does. Replica
// replay carves rows from the DB value slab and leaves string columns as
// views of the record image, so string-bearing inserts allocate only slab
// chunks. An update that moves an indexed column allocates only the row the
// table keeps: its two entry keys are built in the table's entry-key
// scratch, and the primary key is never copied.
func TestDeltaStoreAllocationFloors(t *testing.T) {
	const n = 20_000
	bt := NewBTree[int]()
	key := make(Key, 0, 16)
	next := int64(0)
	insert := func() {
		for range n {
			next++
			bt.Set(AppendIntKey(key[:0], (next*7919)%(4*n)), int(next))
		}
	}
	insert()
	// AllocsPerRun runs insert once more to warm up before the measured run.
	if got := testing.AllocsPerRun(1, insert) / n; got > 0.01 {
		t.Errorf("BTree.Set into a warm tree: %v allocs per insert, want <= 0.01", got)
	}
	if got := testing.AllocsPerRun(1000, func() { bt.Get(AppendIntKey(key[:0], next%(4*n))) }); got != 0 {
		t.Errorf("BTree.Get: %v allocs per run, want 0", got)
	}

	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	replica := NewDB(s)
	tbl := replica.MustCreateTable(benchSchema(), 0, nil)
	const perPass, batch = 8192, 64
	recs := make([]storage.Record, 2*perPass)
	for i := range recs {
		id := int64(i + 1)
		row := Row{Int(id), Str(fmt.Sprintf("customer-%08d", id)), Str(fmt.Sprintf("s%d", id)), Float(float64(id))}
		recs[i] = storage.Record{Type: storage.RecInsert, Table: tbl.ID, Key: IntKey(id), Image: EncodeRow(nil, row)}
	}
	pass := 0
	apply := func() {
		part := recs[pass*perPass : (pass+1)*perPass]
		pass++
		for lo := 0; lo < len(part); lo += batch {
			if err := replica.ApplyBatch(part[lo : lo+batch]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := testing.AllocsPerRun(1, apply) / perPass; got > 0.05 {
		t.Errorf("ApplyBatch of string-bearing inserts: %v allocs per record, want <= 0.05", got)
	}
	if r, _, ok := tbl.Get(IntKey(2 * perPass)); !ok || r[1].Str() != fmt.Sprintf("customer-%08d", 2*perPass) {
		t.Fatalf("replayed row = %v, %v", r, ok)
	}

	db := NewDB(s)
	items := db.MustCreateTable(indexedSchema(), 10_000, genItem)
	db.MustCreateIndex("items", "ix_items_group", "IT_GROUP")
	s.Go("gate", func(p *sim.Proc) {
		row := make(Row, 0, len(items.Schema.Cols))
		id := int64(0)
		got := testing.AllocsPerRun(2000, func() {
			id++
			txn := db.Begin(p)
			key = AppendIntKey(key[:0], id)
			old, _, err := txn.GetForUpdateInto(items, key, row)
			if err != nil {
				t.Fatal(err)
			}
			upd := old.Clone()
			upd[1] = Int(old[1].Int() + 1)
			if _, err := txn.Update(items, key, upd); err != nil {
				t.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("update moving an indexed column: %v allocs per run, want 1", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
