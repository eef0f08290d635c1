package engine

import (
	"bytes"
	"errors"
	"testing"

	"cloudybench/internal/storage"
)

func testSchema() *Schema {
	return &Schema{
		Name: "orders",
		Cols: []Column{
			{Name: "O_ID", Kind: KindInt},
			{Name: "O_STATUS", Kind: KindString},
		},
		KeyCols:     []int{0},
		AvgRowBytes: 64,
	}
}

func genOrder(dst Row, id int64) Row { return append(dst[:0], Int(id), Str("NEW")) }

func newTestTable(t *testing.T, baseRows int64) *Table {
	t.Helper()
	tbl, err := NewTable(1, testSchema(), baseRows, genOrder)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestSchemaValidate(t *testing.T) {
	bad := []*Schema{
		{},
		{Name: "t"},
		{Name: "t", Cols: []Column{{Name: "a", Kind: KindInt}}},
		{Name: "t", Cols: []Column{{Name: "a", Kind: KindInt}}, KeyCols: []int{5}, AvgRowBytes: 10},
		{Name: "t", Cols: []Column{{Name: "a", Kind: KindInt}}, KeyCols: []int{0}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("schema %d validated", i)
		}
	}
	if err := testSchema().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaColIndexAndKeyOf(t *testing.T) {
	s := testSchema()
	if s.ColIndex("O_STATUS") != 1 || s.ColIndex("missing") != -1 {
		t.Fatal("ColIndex")
	}
	k := s.appendKeyOf(nil, Row{Int(42), Str("PAID")})
	if id, ok := DecodeIntKey(k); !ok || id != 42 {
		t.Fatalf("appendKeyOf = %v", k)
	}
}

func TestTableBaseRowsVirtual(t *testing.T) {
	tbl := newTestTable(t, 1000)
	if tbl.LiveRows() != 1000 || tbl.MaxID() != 1000 {
		t.Fatalf("live=%d max=%d", tbl.LiveRows(), tbl.MaxID())
	}
	row, page, ok := tbl.Get(IntKey(500))
	if !ok || row[0].Int() != 500 {
		t.Fatalf("base get: %v %v", row, ok)
	}
	// 8192/64 = 128 rows/page; id 500 -> page (500-1)/128 = 3.
	if page.Num != 3 {
		t.Fatalf("page = %d, want 3", page.Num)
	}
	if _, _, ok := tbl.Get(IntKey(1001)); ok {
		t.Fatal("row past base exists")
	}
	if _, _, ok := tbl.Get(IntKey(0)); ok {
		t.Fatal("row 0 exists")
	}
	// 1000 rows at 128/page = 8 pages.
	if tbl.Pages() != 8 {
		t.Fatalf("pages = %d, want 8", tbl.Pages())
	}
}

func TestTableInsertAssignsAppendPages(t *testing.T) {
	tbl := newTestTable(t, 100) // 1 base page (128 rows/page)
	id := tbl.NextAutoID()
	if id != 101 {
		t.Fatalf("first auto id = %d, want 101", id)
	}
	page, err := tbl.Insert(IntKey(id), genOrder(nil, id))
	if err != nil {
		t.Fatal(err)
	}
	if page.Num != 1 {
		t.Fatalf("append page = %d, want 1 (after 1 base page)", page.Num)
	}
	if tbl.LiveRows() != 101 || tbl.MaxID() != 101 {
		t.Fatalf("live=%d max=%d", tbl.LiveRows(), tbl.MaxID())
	}
	// 128 more inserts overflow to the next page.
	for i := 0; i < 128; i++ {
		id := tbl.NextAutoID()
		p, err := tbl.Insert(IntKey(id), genOrder(nil, id))
		if err != nil {
			t.Fatal(err)
		}
		if i < 127 && p.Num != 1 {
			t.Fatalf("insert %d landed on page %d", i, p.Num)
		}
		if i == 127 && p.Num != 2 {
			t.Fatalf("overflow insert on page %d, want 2", p.Num)
		}
	}
}

func TestTableInsertDuplicate(t *testing.T) {
	tbl := newTestTable(t, 100)
	if _, err := tbl.Insert(IntKey(50), genOrder(nil, 50)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate base insert: %v", err)
	}
	id := tbl.NextAutoID()
	if _, err := tbl.Insert(IntKey(id), genOrder(nil, id)); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(IntKey(id), genOrder(nil, id)); !errors.Is(err, ErrDuplicateKey) {
		t.Fatalf("duplicate delta insert: %v", err)
	}
}

func TestTableUpdateOverlaysBase(t *testing.T) {
	tbl := newTestTable(t, 100)
	newRow := Row{Int(7), Str("PAID")}
	page, old, err := tbl.Update(IntKey(7), newRow, nil)
	if err != nil {
		t.Fatal(err)
	}
	if old[1].Str() != "NEW" {
		t.Fatalf("old row = %v", old)
	}
	if page != tbl.PageOfBase(7) {
		t.Fatal("update moved the row off its base page")
	}
	got, _, ok := tbl.Get(IntKey(7))
	if !ok || got[1].Str() != "PAID" {
		t.Fatalf("updated row = %v", got)
	}
	if tbl.LiveRows() != 100 {
		t.Fatal("update changed live count")
	}
	if _, _, err := tbl.Update(IntKey(9999), newRow, nil); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("update missing: %v", err)
	}
}

func TestTableDeleteTombstonesBase(t *testing.T) {
	tbl := newTestTable(t, 100)
	_, old, err := tbl.Delete(IntKey(10), nil)
	if err != nil || old[0].Int() != 10 {
		t.Fatalf("delete: %v %v", old, err)
	}
	if _, _, ok := tbl.Get(IntKey(10)); ok {
		t.Fatal("deleted row visible")
	}
	if tbl.LiveRows() != 99 {
		t.Fatalf("live = %d, want 99", tbl.LiveRows())
	}
	if _, _, err := tbl.Delete(IntKey(10), nil); !errors.Is(err, ErrRowNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	// Re-insert over tombstone reuses the base page.
	page, err := tbl.Insert(IntKey(10), genOrder(nil, 10))
	if err != nil {
		t.Fatal(err)
	}
	if page != tbl.PageOfBase(10) {
		t.Fatal("re-insert did not reuse base page")
	}
	if tbl.LiveRows() != 100 {
		t.Fatalf("live after reinsert = %d", tbl.LiveRows())
	}
}

func TestTableScanMergesBaseAndDelta(t *testing.T) {
	tbl := newTestTable(t, 10)
	tbl.Delete(IntKey(3), nil)
	tbl.Update(IntKey(5), Row{Int(5), Str("PAID")}, nil)
	id := tbl.NextAutoID() // 11
	tbl.Insert(IntKey(id), genOrder(nil, id))
	var ids []int64
	var status5 string
	tbl.VisibleScan(func(k Key, r Row) bool {
		id, _ := DecodeIntKey(k)
		ids = append(ids, id)
		if id == 5 {
			status5 = r[1].Str()
		}
		return true
	})
	want := []int64{1, 2, 4, 5, 6, 7, 8, 9, 10, 11}
	if len(ids) != len(want) {
		t.Fatalf("scan ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("scan ids = %v, want %v", ids, want)
		}
	}
	if status5 != "PAID" {
		t.Fatal("scan did not see delta update")
	}
	// Early stop.
	count := 0
	tbl.VisibleScan(func(Key, Row) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop count = %d", count)
	}
}

func TestTableRangeDeltaOnly(t *testing.T) {
	schema := &Schema{
		Name:        "ol",
		Cols:        []Column{{Name: "O_ID", Kind: KindInt}, {Name: "N", Kind: KindInt}},
		KeyCols:     []int{0, 1},
		AvgRowBytes: 32,
	}
	tbl, err := NewTable(2, schema, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for o := int64(1); o <= 3; o++ {
		for n := int64(1); n <= 4; n++ {
			if _, err := tbl.Insert(EncodeKey(Int(o), Int(n)), Row{Int(o), Int(n)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	tbl.Delete(EncodeKey(Int(2), Int(2)), nil)
	var got []int64
	lo, hi := EncodeKey(Int(2)), EncodeKey(Int(3))
	tbl.VisibleScan(func(k Key, r Row) bool {
		if bytes.Compare(k, lo) >= 0 && bytes.Compare(k, hi) < 0 {
			got = append(got, r[1].Int())
		}
		return true
	})
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("range = %v, want [1 3 4]", got)
	}
}

func TestTableApplyAtKeepsPageIdentity(t *testing.T) {
	tbl := newTestTable(t, 100)
	page := storage.PageID{Table: 1, Num: 77}
	tbl.InsertAt(IntKey(200), genOrder(nil, 200), page)
	got, gotPage, ok := tbl.Get(IntKey(200))
	if !ok || got[0].Int() != 200 || gotPage != page {
		t.Fatalf("InsertAt: %v %v %v", got, gotPage, ok)
	}
	if tbl.MaxID() != 200 {
		t.Fatalf("MaxID after replay = %d", tbl.MaxID())
	}
	// Idempotent replay.
	tbl.InsertAt(IntKey(200), genOrder(nil, 200), page)
	if tbl.LiveRows() != 101 {
		t.Fatalf("live after idempotent replay = %d", tbl.LiveRows())
	}
	tbl.UpdateAt(IntKey(200), Row{Int(200), Str("PAID")}, page)
	got, _, _ = tbl.Get(IntKey(200))
	if got[1].Str() != "PAID" {
		t.Fatal("UpdateAt")
	}
	tbl.DeleteAt(IntKey(200), page)
	if _, _, ok := tbl.Get(IntKey(200)); ok {
		t.Fatal("DeleteAt left row visible")
	}
	if tbl.LiveRows() != 100 {
		t.Fatalf("live after DeleteAt = %d", tbl.LiveRows())
	}
	// Idempotent delete replay.
	tbl.DeleteAt(IntKey(200), page)
	if tbl.LiveRows() != 100 {
		t.Fatal("double DeleteAt changed live count")
	}
}

func TestNewTableErrors(t *testing.T) {
	if _, err := NewTable(1, testSchema(), 10, nil); err == nil {
		t.Fatal("base rows without generator accepted")
	}
	if _, err := NewTable(1, &Schema{}, 0, nil); err == nil {
		t.Fatal("invalid schema accepted")
	}
}
