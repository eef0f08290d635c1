package check

import (
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/sim"
)

// TestIndexCoherent proves the invariant passes on a live indexed table
// across committed and rolled-back work. Its teeth are the mutant catalogue's
// (internal/mutants): an index maintenance bug must fail it.
func TestIndexCoherent(t *testing.T) {
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db := engine.NewDB(s)
	schema := &engine.Schema{
		Name: "items",
		Cols: []engine.Column{
			{Name: "IT_ID", Kind: engine.KindInt},
			{Name: "IT_GROUP", Kind: engine.KindInt},
		},
		KeyCols:     []int{0},
		AvgRowBytes: 32,
	}
	tbl := db.MustCreateTable(schema, 30, func(dst engine.Row, id int64) engine.Row {
		return append(dst[:0], engine.Int(id), engine.Int(id%5))
	})
	db.MustCreateIndex("items", "ix_items_group", "IT_GROUP")

	s.Go("mutate", func(p *sim.Proc) {
		txn := db.Begin(p)
		txn.Insert(tbl, engine.Row{engine.Int(100), engine.Int(7)})
		txn.Update(tbl, engine.IntKey(3), engine.Row{engine.Int(3), engine.Int(9)})
		txn.Delete(tbl, engine.IntKey(4))
		txn.Commit()
		txn = db.Begin(p)
		txn.Insert(tbl, engine.Row{engine.Int(200), engine.Int(8)})
		txn.Abort()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	v := IndexCoherent("rw", db)
	if !v.Passed || v.Checked != 30 {
		t.Fatalf("coherent index reported %v (checked %d)", v, v.Checked)
	}
}
