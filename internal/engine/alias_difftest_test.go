package engine_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cloudybench/internal/check"
	"cloudybench/internal/engine"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// This file is the aliasing differential test behind the append-style
// point-access API (DESIGN.md §15, "Who owns which buffer"): callers encode
// keys into scratch they reuse and read base rows into scratch they reuse, so
// nothing the engine keeps — overlay keys and rows, undo entries, WAL record
// bytes, lock-table keys, what an observer recorded, what a replica applied —
// may point into either. The same script runs with fresh buffers per call and
// with one shared key buffer and one shared row buffer that are overwritten
// after every call; every observable outcome must be identical.

// aliasBufs hands the script its key and row buffers.
type aliasBufs struct {
	shared bool
	key    []byte
	row    engine.Row
}

func newAliasBufs(shared bool) *aliasBufs {
	b := &aliasBufs{shared: shared}
	if shared {
		b.key = make([]byte, 0, 32)
		b.row = make(engine.Row, 0, len(recoverySchema().Cols))
	}
	return b
}

func (b *aliasBufs) k(id int64) engine.Key {
	if !b.shared {
		return engine.IntKey(id)
	}
	b.key = engine.AppendIntKey(b.key[:0], id)
	return b.key
}

func (b *aliasBufs) dst() engine.Row {
	if !b.shared {
		return nil
	}
	return b.row
}

// smash overwrites the shared buffers, as the caller's next use would.
func (b *aliasBufs) smash() {
	if !b.shared {
		return
	}
	for i := range b.key[:cap(b.key)] {
		b.key[:cap(b.key)][i] = 0xFF
	}
	for i := range b.row[:cap(b.row)] {
		b.row[:cap(b.row)][i] = engine.Str("\xff\xff smashed")
	}
}

// aliasOutcome is everything the script can observe.
type aliasOutcome struct {
	steps    []string // every read result and rollback result, in script order
	contents []string // visible row per id, primary then replica
	delta    []string // ScanDelta of primary then replica
	wal      [][]byte // encoded WAL records
	events   []string // check.Recorder history (recorded runs only)
}

func fmtRow(r engine.Row) string {
	if r == nil {
		return "<nil>"
	}
	return fmt.Sprint([]engine.Value(r))
}

func runAliasScript(t *testing.T, shared, record bool) aliasOutcome {
	t.Helper()
	s, db, tbl := newRecoveryDB(t)
	_, replica, rtbl := newRecoveryDB(t)
	var rec *check.Recorder
	if record {
		rec = check.NewRecorder()
		db.SetObserver(rec)
	}
	bufs := newAliasBufs(shared)
	var out aliasOutcome
	step := func(format string, args ...any) { out.steps = append(out.steps, fmt.Sprintf(format, args...)) }
	const maxID = 90 // ids 1..60 are base rows

	// apply ships one commit's records to the replica with every key carved
	// from one buffer that is overwritten once ApplyBatch returns.
	var keyArena []byte
	apply := func(recs []storage.Record) {
		batch := make([]storage.Record, len(recs))
		copy(batch, recs)
		if shared {
			keyArena = keyArena[:0]
			for _, r := range recs {
				keyArena = append(keyArena, r.Key...)
			}
			off := 0
			for i := range batch {
				n := len(batch[i].Key)
				batch[i].Key = keyArena[off : off+n : off+n]
				off += n
			}
		}
		if err := replica.ApplyBatch(batch); err != nil {
			t.Errorf("apply: %v", err)
		}
		for i := range keyArena {
			keyArena[i] = 0xFF
		}
	}

	s.Go("script", func(p *sim.Proc) {
		r := rand.New(rand.NewSource(7))
		for i := 0; i < 300; i++ {
			txn := db.Begin(p)
			var touched []int64
			for j, n := 0, 1+r.Intn(4); j < n; j++ {
				id := 1 + r.Int63n(maxID)
				touched = append(touched, id)
				switch r.Intn(5) {
				case 0:
					row := recoveryRow(nil, id)
					_, err := txn.Insert(tbl, row)
					step("txn %d insert %d: %v", i, id, err)
				case 1:
					row := engine.Row{engine.Int(id), engine.Int(r.Int63n(12)), engine.Float(float64(i)), engine.Str(fmt.Sprintf("u%d", i%5))}
					_, err := txn.Update(tbl, bufs.k(id), row)
					step("txn %d update %d: %v", i, id, err)
				case 2:
					_, err := txn.Delete(tbl, bufs.k(id))
					step("txn %d delete %d: %v", i, id, err)
				case 3:
					row, page, err := txn.GetInto(tbl, bufs.k(id), bufs.dst())
					step("txn %d get %d: %s %v %v", i, id, fmtRow(row), page, err)
				case 4:
					row, page, err := txn.GetForUpdateInto(tbl, bufs.k(id), bufs.dst())
					step("txn %d get-for-update %d: %s %v %v", i, id, fmtRow(row), page, err)
				}
				bufs.smash()
			}
			if r.Intn(4) == 0 {
				if err := txn.Abort(); err != nil {
					t.Errorf("abort: %v", err)
				}
				for _, id := range touched {
					row, page, ok := db.ReadInto(tbl.Schema.Name, bufs.k(id), bufs.dst())
					step("txn %d rolled back %d: %s %v %v", i, id, fmtRow(row), page, ok)
					bufs.smash()
				}
				continue
			}
			recs, err := txn.Commit()
			if err != nil {
				t.Errorf("commit: %v", err)
			}
			apply(recs)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if held := db.Locks().HeldLocks(); held != 0 {
		t.Fatalf("%d locks held after the script", held)
	}

	for _, side := range []struct {
		db  *engine.DB
		tbl *engine.Table
	}{{db, tbl}, {replica, rtbl}} {
		for id := int64(1); id <= maxID; id++ {
			row, page, ok := side.db.ReadInto(side.tbl.Schema.Name, engine.IntKey(id), nil)
			out.contents = append(out.contents, fmt.Sprintf("%d: %s %v %v", id, fmtRow(row), page, ok))
		}
		side.tbl.ScanDelta(func(k engine.Key, row engine.Row, tomb bool) bool {
			out.delta = append(out.delta, fmt.Sprintf("%x: %s %v", []byte(k), fmtRow(row), tomb))
			return true
		})
		for _, ix := range side.tbl.Indexes() {
			ix.Walk(func(ek, pk engine.Key) bool {
				out.delta = append(out.delta, fmt.Sprintf("%s %x -> %x", ix.Name, []byte(ek), []byte(pk)))
				return true
			})
		}
	}
	recs := slices.Concat(slices.Collect(db.Log().Chunks())...)
	for i := range recs {
		out.wal = append(out.wal, recs[i].Encode(nil))
	}
	if rec != nil {
		for _, ev := range rec.Events() {
			out.events = append(out.events, fmt.Sprintf("%d %v txn %d %v %s %x %s -> %s",
				ev.Seq, ev.At, ev.Txn, ev.Kind, ev.Table, []byte(ev.Key), fmtRow(ev.Before), fmtRow(ev.After)))
		}
	}
	return out
}

func TestSharedScratchMatchesFreshBuffers(t *testing.T) {
	for _, record := range []bool{false, true} {
		fresh := runAliasScript(t, false, record)
		shared := runAliasScript(t, true, record)
		if len(fresh.wal) < 300 || len(fresh.delta) < 50 {
			t.Fatalf("script too small to mean anything: %d WAL records, %d overlay entries", len(fresh.wal), len(fresh.delta))
		}
		if record && len(fresh.events) < 300 {
			t.Fatalf("recorder saw only %d events", len(fresh.events))
		}
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"read and rollback results", shared.steps, fresh.steps},
			{"table contents", shared.contents, fresh.contents},
			{"overlay and index entries", shared.delta, fresh.delta},
			{"WAL record bytes", shared.wal, fresh.wal},
			{"recorded history", shared.events, fresh.events},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Errorf("recorder=%v: %s differ between shared scratch and fresh buffers%s", record, f.name, firstDiff(f.got, f.want))
			}
		}
	}
}

// firstDiff names the first differing element of two equal-typed slices.
func firstDiff(got, want any) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.Len() && i < w.Len(); i++ {
		if !reflect.DeepEqual(g.Index(i).Interface(), w.Index(i).Interface()) {
			return fmt.Sprintf("\n  at %d:\n  shared: %v\n  fresh:  %v", i, g.Index(i).Interface(), w.Index(i).Interface())
		}
	}
	return fmt.Sprintf("\n  lengths %d vs %d", g.Len(), w.Len())
}
