package engine

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

func indexedSchema() *Schema {
	return &Schema{
		Name: "items",
		Cols: []Column{
			{Name: "IT_ID", Kind: KindInt},
			{Name: "IT_GROUP", Kind: KindInt},
			{Name: "IT_PRICE", Kind: KindFloat},
			{Name: "IT_TAG", Kind: KindString},
		},
		KeyCols:     []int{0},
		AvgRowBytes: 64,
	}
}

func genItem(dst Row, id int64) Row {
	return append(dst[:0], Int(id), Int(id%10), Float(float64(id)/2), Str("base"))
}

func newIndexedDB(t *testing.T, baseRows int64) (*sim.Sim, *DB, *Table, *Index) {
	t.Helper()
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db := NewDB(s)
	tbl := db.MustCreateTable(indexedSchema(), baseRows, genItem)
	ix := db.MustCreateIndex("items", "ix_items_group", "IT_GROUP")
	return s, db, tbl, ix
}

// indexIsProjection checks every index of the table against the visible
// rows, both directions, byte for byte.
func indexIsProjection(t *testing.T, tbl *Table) {
	t.Helper()
	for _, ix := range tbl.Indexes() {
		var want []Key
		tbl.VisibleScan(func(pk Key, r Row) bool {
			want = append(want, ix.EntryKey(r[ix.Col], pk))
			return true
		})
		sortKeys(want)
		var got []Key
		ix.Walk(func(ek Key, pk Key) bool {
			got = append(got, append(Key(nil), ek...))
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("index %s has %d entries, table projects %d", ix.Name, len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("index %s entry %d: got %x want %x", ix.Name, i, got[i], want[i])
			}
		}
	}
}

func sortKeys(ks []Key) {
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && bytes.Compare(ks[j], ks[j-1]) < 0; j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}

func TestCreateIndexMaterializesBaseRows(t *testing.T) {
	_, _, tbl, ix := newIndexedDB(t, 40)
	if ix.tree.Len() != 40 {
		t.Fatalf("index has %d entries, want 40", ix.tree.Len())
	}
	indexIsProjection(t, tbl)
	// Group 3 holds ids 3, 13, 23, 33.
	var pks []int64
	ix.Scan(Int(3), Int(3), func(pk Key, _ storage.PageID) bool {
		id, _ := DecodeIntKey(pk)
		pks = append(pks, id)
		return true
	})
	want := []int64{3, 13, 23, 33}
	if len(pks) != len(want) {
		t.Fatalf("group 3 pks = %v, want %v", pks, want)
	}
	for i := range want {
		if pks[i] != want[i] {
			t.Fatalf("group 3 pks = %v, want %v", pks, want)
		}
	}
}

func TestIndexMaintainedAcrossMutationsAndRollback(t *testing.T) {
	s, db, tbl, _ := newIndexedDB(t, 20)
	s.Go("driver", func(p *sim.Proc) {
		// Committed insert, update (group change), delete.
		txn := db.Begin(p)
		txn.Insert(tbl, Row{Int(100), Int(77), Float(1), Str("new")})
		txn.Update(tbl, IntKey(5), Row{Int(5), Int(77), Float(2), Str("moved")})
		txn.Delete(tbl, IntKey(6))
		txn.Commit()

		// Aborted work across every mutation kind must leave no trace.
		txn = db.Begin(p)
		txn.Insert(tbl, Row{Int(200), Int(88), Float(1), Str("ghost")})
		txn.Update(tbl, IntKey(100), Row{Int(100), Int(99), Float(1), Str("ghost")})
		txn.Delete(tbl, IntKey(5))
		txn.Update(tbl, IntKey(7), Row{Int(7), Int(7 % 10), Float(9), Str("same-group")})
		txn.Abort()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	indexIsProjection(t, tbl)
	ix := tbl.ixByCol[1]
	var group77 []int64
	ix.Scan(Int(77), Int(77), func(pk Key, _ storage.PageID) bool {
		id, _ := DecodeIntKey(pk)
		group77 = append(group77, id)
		return true
	})
	if len(group77) != 2 || group77[0] != 5 || group77[1] != 100 {
		t.Fatalf("group 77 = %v, want [5 100]", group77)
	}
	if n := ix.tree.Len(); n != 20 { // 20 base - 1 delete + 1 insert
		t.Fatalf("index has %d entries, want 20", n)
	}
}

func TestIndexWALRecordsEmittedAndReplicaDerives(t *testing.T) {
	s, db, tbl, _ := newIndexedDB(t, 10)

	// Replica with identical schema + index creation order.
	replica := NewDB(s)
	rtbl := replica.MustCreateTable(indexedSchema(), 10, genItem)
	replica.MustCreateIndex("items", "ix_items_group", "IT_GROUP")

	s.Go("driver", func(p *sim.Proc) {
		txn := db.Begin(p)
		txn.Insert(tbl, Row{Int(50), Int(4), Float(1), Str("x")})
		txn.Update(tbl, IntKey(2), Row{Int(2), Int(9), Float(1), Str("y")})
		txn.Delete(tbl, IntKey(3))
		txn.Commit()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	var puts, dels int
	for _, rec := range slices.Concat(slices.Collect(db.Log().Chunks())...) {
		switch rec.Type {
		case 8: // storage.RecIndexPut
			puts++
		case 9: // storage.RecIndexDelete
			dels++
		}
		if err := replica.Apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	// insert: 1 put; update (group 2->9): 1 del + 1 put; delete: 1 del.
	if puts != 2 || dels != 2 {
		t.Fatalf("index WAL records: %d puts %d dels, want 2/2", puts, dels)
	}
	indexIsProjection(t, rtbl)
	rix := rtbl.ixByCol[1]
	if rix.tree.Len() != tbl.ixByCol[1].tree.Len() {
		t.Fatalf("replica index %d entries, primary %d", rix.tree.Len(), tbl.ixByCol[1].tree.Len())
	}
}

func TestIndexRejectsDuplicatesAndBadColumns(t *testing.T) {
	_, db, _, _ := newIndexedDB(t, 5)
	if _, err := db.CreateIndex("items", "ix_items_group", "IT_PRICE"); err == nil {
		t.Fatal("duplicate index name accepted")
	}
	if _, err := db.CreateIndex("items", "ix2", "IT_GROUP"); err == nil {
		t.Fatal("second index on same column accepted")
	}
	if _, err := db.CreateIndex("items", "ix3", "NOPE"); err == nil {
		t.Fatal("index on unknown column accepted")
	}
	if _, err := db.CreateIndex("nope", "ix4", "IT_GROUP"); err == nil {
		t.Fatal("index on unknown table accepted")
	}
	if _, err := db.CreateIndex("items", "ix5", "IT_PRICE"); err != nil {
		t.Fatalf("float index rejected: %v", err)
	}
}

func TestFloatKeyOrdering(t *testing.T) {
	vals := []float64{-1e300, -2.5, -0.0, 0.0, 1e-9, 1, 2.5, 1e300}
	for i := 1; i < len(vals); i++ {
		a, b := EncodeKey(Float(vals[i-1])), EncodeKey(Float(vals[i]))
		if bytes.Compare(a, b) > 0 {
			t.Fatalf("float key order broken: %v > %v", vals[i-1], vals[i])
		}
	}
	for _, f := range vals {
		v, n, ok := DecodeKeyValue(EncodeKey(Float(f)))
		if !ok || n != 9 || v.Float() != f {
			t.Fatalf("float key round trip failed for %v: got %v", f, v)
		}
	}
}
