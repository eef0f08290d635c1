package engine

import (
	"testing"
	"time"

	"cloudybench/internal/sim"
)

// benchTable builds an indexed table with n base rows for scan benchmarks.
func benchTable(n int64) (*Table, *Index) {
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db := NewDB(s)
	tbl := db.MustCreateTable(indexedSchema(), n, genItem)
	return tbl, db.MustCreateIndex("items", "ix_items_group", "IT_GROUP")
}

// BenchmarkIndexRangeScan measures a selective indexed range scan (one
// group out of ten, 10% of rows).
func BenchmarkIndexRangeScan(b *testing.B) {
	tbl, ix := benchTable(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := tbl.indexScan(ix, Int(3), Int(3), 0); len(res.Rows) == 0 {
			b.Fatal("empty index scan")
		}
	}
}

// BenchmarkFullScanOracle measures the same query through the full-scan
// oracle path, the planner's alternative.
func BenchmarkFullScanOracle(b *testing.B) {
	tbl, _ := benchTable(10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := tbl.fullScan(1, Int(3), Int(3), 0); len(res.Rows) == 0 {
			b.Fatal("empty full scan")
		}
	}
}

// BenchmarkIndexMaintenance measures the per-write cost of keeping one
// secondary index coherent (insert + group-moving update + delete).
func BenchmarkIndexMaintenance(b *testing.B) {
	tbl, _ := benchTable(1_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(2_000 + i)
		k := IntKey(id)
		if _, err := tbl.Insert(k, Row{Int(id), Int(id % 7), Float(1), Str("b")}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := tbl.Update(k, Row{Int(id), Int((id + 1) % 7), Float(1), Str("b")}, nil); err != nil {
			b.Fatal(err)
		}
		if _, _, err := tbl.Delete(k, nil); err != nil {
			b.Fatal(err)
		}
	}
}
