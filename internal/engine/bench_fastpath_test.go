package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// Fast-path microbenchmarks for the txn commit loop and the replica apply
// path. The schema mirrors the CloudyBench customer table's shape — int
// key, two low-cardinality strings, a float — so the row-image
// encode/decode cost is representative. The committed measurement is
// `go run ./benchmark` (its probe.engine.* rows time the same paths).
//
// Comparing two commits (fixed iteration counts so runs stay comparable;
// the txn benchmarks use a smaller count because each committed iteration
// grows the WAL, and the replica benchmark a larger one so steady-state GC
// behaviour is what gets measured):
//
//	go test -run '^$' -bench 'BenchmarkTxn' -benchtime 100000x -count 5 ./internal/engine/
//	go test -run '^$' -bench 'BenchmarkReplicaApply' -benchtime 1000000x -count 5 ./internal/engine/
//	go test -run '^$' -bench 'BenchmarkDeltaWriteRandom' -benchtime 100000x -count 5 ./internal/engine/

func benchSchema() *Schema {
	return &Schema{
		Name: "bench_rows",
		Cols: []Column{
			{Name: "id", Kind: KindInt},
			{Name: "name", Kind: KindString},
			{Name: "status", Kind: KindString},
			{Name: "amount", Kind: KindFloat},
		},
		KeyCols:     []int{0},
		AvgRowBytes: 64,
	}
}

func benchRow(dst Row, id int64) Row {
	return append(dst[:0],
		Int(id),
		Str(fmt.Sprintf("name-%04d", id%512)),
		Str("pending"),
		Float(float64(id)*0.25),
	)
}

// benchInSim runs fn on a simulation process and drains the sim.
func benchInSim(b *testing.B, fn func(s *sim.Sim, p *sim.Proc)) {
	b.Helper()
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	s.Go("bench", func(p *sim.Proc) { fn(s, p) })
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTxnCommit measures the uncontended write-transaction hot loop:
// Begin, one hot-row update, Commit. The two row buffers alternate so the
// engine's ownership-transfer contract is respected without allocating a
// fresh row per iteration (the row replaced in the delta two commits ago is
// unreferenced and safe to reuse).
func BenchmarkTxnCommit(b *testing.B) {
	benchInSim(b, func(s *sim.Sim, p *sim.Proc) {
		db := NewDB(s)
		tbl := db.MustCreateTable(benchSchema(), 0, nil)
		seedTxn := db.Begin(p)
		if _, err := seedTxn.Insert(tbl, benchRow(nil, 1)); err != nil {
			b.Fatal(err)
		}
		if _, err := seedTxn.Commit(); err != nil {
			b.Fatal(err)
		}
		rowA, rowB := benchRow(nil, 1), benchRow(nil, 1)
		k := tbl.Schema.appendKeyOf(nil, rowA)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			row := rowA
			if i&1 == 1 {
				row = rowB
			}
			row[3] = Float(float64(i))
			txn := db.Begin(p)
			if _, err := txn.Update(tbl, k, row); err != nil {
				b.Fatal(err)
			}
			if _, err := txn.Commit(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTxnAbort measures the rollback path: aborted transactions must
// leave no trace and, on the fast path, allocate nothing.
func BenchmarkTxnAbort(b *testing.B) {
	benchInSim(b, func(s *sim.Sim, p *sim.Proc) {
		db := NewDB(s)
		tbl := db.MustCreateTable(benchSchema(), 0, nil)
		seedTxn := db.Begin(p)
		if _, err := seedTxn.Insert(tbl, benchRow(nil, 1)); err != nil {
			b.Fatal(err)
		}
		if _, err := seedTxn.Commit(); err != nil {
			b.Fatal(err)
		}
		rowA, rowB := benchRow(nil, 1), benchRow(nil, 1)
		k := tbl.Schema.appendKeyOf(nil, rowA)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			row := rowA
			if i&1 == 1 {
				row = rowB
			}
			txn := db.Begin(p)
			if _, err := txn.Update(tbl, k, row); err != nil {
				b.Fatal(err)
			}
			if err := txn.Abort(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// replicaBatch builds a committed WAL batch (inserts then updates over a
// small key range, with commit markers) and a replica DB to apply it to.
func replicaBatch(b *testing.B) (*DB, []storage.Record) {
	b.Helper()
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	var recs []storage.Record
	replica := NewDB(s)
	replica.MustCreateTable(benchSchema(), 0, nil)

	primary := NewDB(s)
	tbl := primary.MustCreateTable(benchSchema(), 0, nil)
	s.Go("build", func(p *sim.Proc) {
		for txn := 0; txn < 32; txn++ {
			t := primary.Begin(p)
			for j := 0; j < 7; j++ {
				id := int64(txn*7 + j + 1)
				if _, err := t.Insert(tbl, benchRow(nil, id)); err != nil {
					panic(err)
				}
			}
			appended, err := t.Commit()
			if err != nil {
				panic(err)
			}
			recs = append(recs, append([]storage.Record(nil), appended...)...)
		}
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	return replica, recs
}

// BenchmarkReplicaApply measures the replica replay path per record: a
// shipped batch of insert records (plus commit markers) applied to a
// replica's delta overlay through the batched path. Idempotent replay keeps
// the replica in steady state across iterations; ns/op and allocs/op are
// per record.
func BenchmarkReplicaApply(b *testing.B) {
	replica, recs := replicaBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		batch := recs
		if rest := b.N - done; rest < len(batch) {
			batch = batch[:rest]
		}
		if err := replica.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
		done += len(batch)
	}
}

// BenchmarkDeltaWriteRandom measures the delta store where the two
// benchmarks above never take it: they write one row and 224 sequential
// keys, so no insert ever shifts a full node. Here a 100 000-row table
// takes updates of random base rows. The first write of a key inserts it
// into the overlay, and a later one overwrites it in place. The tree passes
// three levels before the clock starts. "txn" times one update transaction
// per op; "apply" replays the same records on a replica through ApplyBatch,
// 64 at a time, and times one record per op.
func BenchmarkDeltaWriteRandom(b *testing.B) {
	const baseRows, warm, batch = 100_000, 1 << 15, 64
	b.Run("txn", func(b *testing.B) {
		benchInSim(b, func(s *sim.Sim, p *sim.Proc) {
			db := NewDB(s)
			tbl := db.MustCreateTable(benchSchema(), baseRows, benchGen)
			update := randomUpdater(b, db, tbl, p)
			for range warm {
				update()
			}
			requireHeight(b, tbl.delta, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				update()
			}
		})
	})
	b.Run("apply", func(b *testing.B) {
		s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
		primary := NewDB(s)
		tbl := primary.MustCreateTable(benchSchema(), baseRows, benchGen)
		var recs []storage.Record
		s.Go("build", func(p *sim.Proc) {
			update := randomUpdater(b, primary, tbl, p)
			for range 2 * warm {
				recs = append(recs, update()...)
			}
		})
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		replica := NewDB(s)
		replica.MustCreateTable(benchSchema(), baseRows, benchGen)
		apply := func(recs []storage.Record) {
			for lo := 0; lo < len(recs); lo += batch {
				if err := replica.ApplyBatch(recs[lo:min(lo+batch, len(recs))]); err != nil {
					b.Fatal(err)
				}
			}
		}
		apply(recs[:len(recs)/2])
		requireHeight(b, replica.Table(tbl.Schema.Name).delta, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for done, at := 0, len(recs)/2; done < b.N; at = 0 {
			part := recs[at:min(len(recs), at+b.N-done)]
			apply(part)
			done += len(part)
		}
	})
}

// randomUpdater returns a function that commits one update of a random base
// row of tbl and returns the transaction's WAL records. The rows it writes
// come from a small prebuilt set: stored rows are immutable, so one row may
// be handed to many keys, and the benchmark times the tree, not the
// allocator.
func randomUpdater(b *testing.B, db *DB, tbl *Table, p *sim.Proc) func() []storage.Record {
	r := rand.New(rand.NewSource(1))
	rows := make([]Row, 256)
	for i := range rows {
		rows[i] = benchGen(nil, int64(i+1))
	}
	key := make(Key, 0, 16)
	i := 0
	return func() []storage.Record {
		i++
		key = AppendIntKey(key[:0], 1+r.Int63n(tbl.BaseRows()))
		txn := db.Begin(p)
		if _, err := txn.Update(tbl, key, rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
		recs, err := txn.Commit()
		if err != nil {
			b.Fatal(err)
		}
		return recs
	}
}

// requireHeight fails b unless tree t has at least levels levels.
func requireHeight[V any](b *testing.B, t *BTree[V], levels int) {
	h := 0
	for r := t.root; r != 0; r = t.node(r).kids[0] {
		h++
	}
	if h < levels {
		b.Fatalf("the delta tree has %d levels, want at least %d", h, levels)
	}
}
