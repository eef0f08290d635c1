package engine

import (
	"testing"
	"time"

	"cloudybench/internal/sim"
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
