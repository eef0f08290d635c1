package engine

import (
	"testing"
	"time"

	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// Recovery microbenchmark. The redo loop is the hot path of crash
// recovery — every durable record of every crashed node flows through it —
// so its per-record cost is benchmarked alongside the txn fast path; the
// end-to-end measurement is `go run ./benchmark`'s gauntlet workload. The
// log is built once; each iteration replays it into a fresh catalog via
// the full Recover pass (analysis + redo + undo), so ns/op is
// per-recovery over a fixed-size log. To compare two commits, run:
//
//	go test -run '^$' -bench 'BenchmarkRecoveryRedo' -benchmem -benchtime 200x -count 5 ./internal/engine/

// crashedBenchLog builds a durable log of committed update/insert traffic
// plus a handful of in-flight losers, then crashes it.
func crashedBenchLog(b *testing.B) storage.LogSnapshot {
	b.Helper()
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db := NewDB(s)
	tbl := db.MustCreateTable(benchSchema(), 0, nil)
	s.Go("build", func(p *sim.Proc) {
		for i := 0; i < 200; i++ {
			t := db.Begin(p)
			id := int64(i%64 + 1)
			if _, _, ok := tbl.Get(IntKey(id)); !ok {
				if _, err := t.Insert(tbl, benchRow(nil, id)); err != nil {
					panic(err)
				}
			} else {
				row := benchRow(nil, id)
				row[3] = Float(float64(i))
				if _, err := t.Update(tbl, IntKey(id), row); err != nil {
					panic(err)
				}
			}
			if _, err := t.Commit(); err != nil {
				panic(err)
			}
		}
		// In-flight losers: logged (durable via the next commit's sync) but
		// never committed, so every recovery runs a real undo pass too.
		losers := make([]*Txn, 0, 4)
		for w := 0; w < 4; w++ {
			t := db.Begin(p)
			if _, err := t.Insert(tbl, benchRow(nil, int64(1000+w))); err != nil {
				panic(err)
			}
			losers = append(losers, t)
		}
		_ = losers
		t := db.Begin(p)
		row := benchRow(nil, 1)
		row[3] = Float(9.5)
		if _, err := t.Update(tbl, IntKey(1), row); err != nil {
			panic(err)
		}
		if _, err := t.Commit(); err != nil {
			panic(err)
		}
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	db.Log().Crash(storage.TornNone)
	return db.Log().Snapshot()
}

// BenchmarkRecoveryRedo measures a full crash-recovery pass — analysis,
// redo of ~200 committed txns over 64 hot keys, undo of 4 losers — into a
// fresh catalog.
func BenchmarkRecoveryRedo(b *testing.B) {
	snap := crashedBenchLog(b)
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := NewDB(sim.New(epoch))
		db.MustCreateTable(benchSchema(), 0, nil)
		st, err := db.Recover(snap, nil)
		if err != nil {
			b.Fatal(err)
		}
		if st.Losers != 4 {
			b.Fatalf("losers = %d, want 4", st.Losers)
		}
	}
}
