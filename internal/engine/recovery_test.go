package engine

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// crashState is what a crash leaves behind: the durable log snapshot and
// the torn tail — everything volatile is gone by definition.
type crashState struct {
	snap storage.LogSnapshot
	tail []byte
}

// newRecoverySchema builds the DB catalog every party to a recovery test
// uses: an indexed table so recovery must reconstruct secondary indexes too.
func newRecoverySchema(s *sim.Sim) (*DB, *Table) {
	db := NewDB(s)
	tbl := db.MustCreateTable(indexedSchema(), 60, genItem)
	db.MustCreateIndex("items", "ix_items_group", "IT_GROUP")
	db.MustCreateIndex("items", "ix_items_tag", "IT_TAG")
	return db, tbl
}

// runCrashWorkload drives a deterministic random mix of committed and
// runtime-aborted transactions, leaves inflight transactions open mid-write,
// and crashes the log with the given torn mode. The inflight txns start
// midway, so later group commits drag their earlier records across the
// fsync barrier (durable losers), while their final writes stay in the
// volatile tail. Checkpoints are taken every ckEvery committed txns
// (0 = never).
func runCrashWorkload(t *testing.T, seed int64, txns, inflight, ckEvery int, torn storage.TornMode) (*DB, crashState) {
	t.Helper()
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db, tbl := newRecoverySchema(s)
	r := rand.New(rand.NewSource(seed))
	s.Go("load", func(p *sim.Proc) {
		committed := 0
		// minID keeps committed txns off the keys the inflight txns hold X
		// locks on (single-proc test: a lock wait would never wake).
		phase := func(n int, minID int64) {
			for i := 0; i < n; i++ {
				txn := db.Begin(p)
				for j := 0; j < 1+r.Intn(3); j++ {
					id := minID + int64(r.Intn(140))
					var err error
					switch r.Intn(3) {
					case 0:
						_, err = txn.Insert(tbl, Row{Int(id), Int(r.Int63n(12)), Float(float64(r.Intn(100)) / 4), Str(fmt.Sprintf("t%d", r.Intn(8)))})
					case 1:
						_, err = txn.Update(tbl, IntKey(id), Row{Int(id), Int(r.Int63n(12)), Float(float64(r.Intn(100)) / 4), Str(fmt.Sprintf("t%d", r.Intn(8)))})
					case 2:
						_, err = txn.Delete(tbl, IntKey(id))
					}
					if err != nil {
						break
					}
				}
				if r.Intn(5) == 0 {
					txn.Abort()
				} else {
					txn.Commit()
					committed++
					if ckEvery > 0 && committed%ckEvery == 0 {
						db.FuzzyCheckpoint(nil)
						db.Log().Sync()
					}
				}
			}
		}
		phase(txns/2, 1)
		// Start the in-flight transactions: distinct private keys, so they
		// conflict with nothing. Their records are volatile now but the
		// second phase's group commits make them durable.
		open := make([]*Txn, 0, inflight)
		for w := 0; w < inflight; w++ {
			txn := db.Begin(p)
			base := int64(500 + 10*w)
			txn.Insert(tbl, Row{Int(base), Int(99), Float(1), Str("inflight")})
			txn.Update(tbl, IntKey(int64(w)+1), Row{Int(int64(w) + 1), Int(99), Float(1), Str("inflight")})
			open = append(open, txn)
		}
		phase(txns-txns/2, int64(inflight)+10)
		// One more write per in-flight txn after the last sync: these land
		// in the volatile tail and vanish (or arrive torn) at the crash.
		for w, txn := range open {
			txn.Update(tbl, IntKey(int64(500+10*w)), Row{Int(int64(500 + 10*w)), Int(98), Float(2), Str("tail")})
		}
		// Never committed, never aborted: the crash takes them.
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	tail, _ := db.Log().Crash(torn)
	return db, crashState{snap: db.Log().Snapshot(), tail: tail}
}

// oracleFromDurableLog replays only the committed transactions' records
// from the durable log, in order, through the replica Apply path — an
// independent reconstruction of "exactly the acknowledged history".
func oracleFromDurableLog(t *testing.T, cs crashState) (*DB, *Table) {
	return replayDurableLog(t, cs, false)
}

// replayDurableLog applies the durable log's data records, in order, through
// the replica Apply path: those of committed transactions, and with losers
// set those of in-flight ones too — every record but a runtime abort's, the
// state a recovery that skipped its undo pass would leave.
func replayDurableLog(t *testing.T, cs crashState, losers bool) (*DB, *Table) {
	t.Helper()
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db, tbl := newRecoverySchema(s)
	lg := storage.NewLog()
	lg.Restore(cs.snap)
	recs := slices.Concat(slices.Collect(lg.Chunks())...)
	committed := make(map[uint64]bool)
	aborted := make(map[uint64]bool)
	for i := range recs {
		switch recs[i].Type {
		case storage.RecCommit:
			committed[recs[i].Txn] = true
		case storage.RecAbort:
			aborted[recs[i].Txn] = true
		}
	}
	for i := range recs {
		if committed[recs[i].Txn] || losers && !aborted[recs[i].Txn] {
			if err := db.Apply(recs[i]); err != nil {
				t.Fatalf("replay apply: %v", err)
			}
		}
	}
	return db, tbl
}

// resealed returns a copy of a torn tail with its CRC trailer recomputed
// over the mangled bytes: the record a reader that trusts the tail would
// apply.
func resealed(tail []byte) []byte {
	out := append([]byte(nil), tail...)
	n := len(out) - 4
	binary.BigEndian.PutUint32(out[n:], crc32.Checksum(out[:n], crc32.MakeTable(crc32.Castagnoli)))
	return out
}

// recoverFresh builds a fresh catalog and runs recovery on it.
func recoverFresh(t *testing.T, cs crashState) (*DB, *Table, RecoveryStats) {
	t.Helper()
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db, tbl := newRecoverySchema(s)
	st, err := db.Recover(cs.snap, cs.tail)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return db, tbl, st
}

// diffTables compares two tables' full logical state: delta overlays entry
// for entry (rows, tombstones, pages — the same byte-level contract replica
// convergence checks), live counts, and every secondary index. Returns a
// description of the first divergence, or "".
func diffTables(a, b *Table) string {
	var diff string
	type ent struct {
		k  Key
		dv deltaVal
	}
	collect := func(t *Table) []ent {
		var out []ent
		t.delta.AscendRange(nil, nil, func(k Key, dv deltaVal) bool {
			out = append(out, ent{k, dv})
			return true
		})
		return out
	}
	ea, eb := collect(a), collect(b)
	if len(ea) != len(eb) {
		return fmt.Sprintf("overlay size %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if string(ea[i].k) != string(eb[i].k) {
			return fmt.Sprintf("overlay key %q vs %q", ea[i].k, eb[i].k)
		}
		if (ea[i].dv.row == nil) != (eb[i].dv.row == nil) {
			return fmt.Sprintf("key %q tombstone mismatch", ea[i].k)
		}
		if ea[i].dv.row != nil && !ea[i].dv.row.Equal(eb[i].dv.row) {
			return fmt.Sprintf("key %q row %v vs %v", ea[i].k, ea[i].dv.row, eb[i].dv.row)
		}
		if ea[i].dv.page != eb[i].dv.page {
			return fmt.Sprintf("key %q page %v vs %v", ea[i].k, ea[i].dv.page, eb[i].dv.page)
		}
	}
	if a.LiveRows() != b.LiveRows() {
		return fmt.Sprintf("liveRows %d vs %d", a.LiveRows(), b.LiveRows())
	}
	ixa, ixb := a.Indexes(), b.Indexes()
	if len(ixa) != len(ixb) {
		return fmt.Sprintf("%d vs %d indexes", len(ixa), len(ixb))
	}
	for i := range ixa {
		if ixa[i].tree.Len() != ixb[i].tree.Len() {
			return fmt.Sprintf("index %s: %d vs %d entries", ixa[i].Name, ixa[i].tree.Len(), ixb[i].tree.Len())
		}
		var keys []string
		ixb[i].Walk(func(ek Key, pk Key) bool {
			keys = append(keys, string(ek))
			return true
		})
		j := 0
		ixa[i].Walk(func(ek Key, pk Key) bool {
			if string(ek) != keys[j] {
				diff = fmt.Sprintf("index %s entry %q vs %q", ixa[i].Name, ek, keys[j])
				return false
			}
			j++
			return true
		})
		if diff != "" {
			return diff
		}
	}
	return ""
}

// TestRecoverEquivalenceDifferential is the recovery-equivalence
// differential test: for a spread of random workloads, crash modes, and
// checkpoint cadences, the recovered DB must be logically identical to an
// independent full replay of the committed prefix — overlays, live counts,
// and secondary indexes.
func TestRecoverEquivalenceDifferential(t *testing.T) {
	modes := []storage.TornMode{storage.TornNone, storage.TornShort, storage.TornFlip}
	for i, seed := range []int64{1, 7, 42, 1337} {
		mode := modes[i%len(modes)]
		ckEvery := []int{0, 25}[i%2]
		t.Run(fmt.Sprintf("seed%d_%v_ck%d", seed, mode, ckEvery), func(t *testing.T) {
			_, cs := runCrashWorkload(t, seed, 150, 3, ckEvery, mode)
			_, otbl := oracleFromDurableLog(t, cs)
			rec, rtbl, st := recoverFresh(t, cs)
			if d := diffTables(rtbl, otbl); d != "" {
				t.Fatalf("recovered state diverges from committed-prefix oracle: %s", d)
			}
			if st.Losers != 3 {
				t.Errorf("losers = %d, want 3", st.Losers)
			}
			if mode != storage.TornNone && len(cs.tail) > 0 && !st.TornDetected {
				t.Error("torn tail present but not detected")
			}
			if ckEvery > 0 && st.CheckpointLSN == 0 {
				t.Error("no checkpoint found despite checkpoint cadence")
			}
			if rc, _ := rec.Stats(); rc != int64(st.Committed) {
				t.Errorf("recovered commit count %d != stats committed %d", rc, st.Committed)
			}
		})
	}
}

// TestRecoverSecondCrashDoesNotResurrect covers the double-crash hazard:
// after recovery rolls a loser back and durably marks it aborted, new
// committed work overwrites the same keys; a second crash + recovery must
// keep the new values instead of re-undoing the old loser under them.
func TestRecoverSecondCrashDoesNotResurrect(t *testing.T) {
	_, cs := runCrashWorkload(t, 11, 80, 2, 0, storage.TornNone)
	db1, tbl1, st1 := recoverFresh(t, cs)
	if st1.Losers != 2 {
		t.Fatalf("first recovery losers = %d, want 2", st1.Losers)
	}
	// New committed work on the recovered node re-inserts the exact keys the
	// losers' undone inserts occupied. If a second recovery re-ran the old
	// losers' undo (undo-of-insert = delete), it would tombstone these rows.
	s := db1.sim
	s.Go("after", func(p *sim.Proc) {
		txn := db1.Begin(p)
		for w := int64(0); w < 2; w++ {
			if _, err := txn.Insert(tbl1, Row{Int(500 + 10*w), Int(7), Float(2), Str("post-crash")}); err != nil {
				t.Errorf("post-recovery insert: %v", err)
			}
		}
		if _, err := txn.Commit(); err != nil {
			t.Errorf("post-recovery commit: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	tail2, _ := db1.Log().Crash(storage.TornNone)
	cs2 := crashState{snap: db1.Log().Snapshot(), tail: tail2}
	_, tbl2, _ := recoverFresh(t, cs2)
	for w := int64(0); w < 2; w++ {
		row, _, ok := tbl2.Get(IntKey(500 + 10*w))
		if !ok || row[3].Str() != "post-crash" {
			t.Fatalf("key %d after second recovery = %v (ok=%v), want post-crash row", 500+10*w, row, ok)
		}
	}
}

// TestRecoverTeethSkipUndo proves the durability gauntlet has teeth: it
// builds the state a recovery without its undo pass would leave (every
// non-aborted data record of the durable log applied with DB.Apply, the
// losers' included), and the committed-prefix differential catches it.
func TestRecoverTeethSkipUndo(t *testing.T) {
	_, cs := runCrashWorkload(t, 5, 100, 2, 0, storage.TornNone)
	_, otbl := oracleFromDurableLog(t, cs)
	if _, _, st := recoverFresh(t, cs); st.Losers == 0 {
		t.Fatal("workload left no losers; teeth test is vacuous")
	}
	_, rtbl := replayDurableLog(t, cs, true)
	if d := diffTables(rtbl, otbl); d == "" {
		t.Fatal("skipped undo went undetected: recovered state equals oracle")
	}
	// The uncommitted marker value must be visible — the resurrection the
	// NoResurrection invariant exists to catch.
	row, _, ok := rtbl.Get(IntKey(500))
	if !ok || row[3].Str() != "inflight" {
		t.Fatalf("expected in-flight insert to survive broken recovery, got %v ok=%v", row, ok)
	}
}

// TestRecoverTeethSkipTornCheck proves the torn-tail checksum pass has
// teeth: it hands honest recovery the TornFlip tail with its CRC trailer
// recomputed, which is what a reader that trusts the tail would apply. The
// corrupt record is then kept, and its mangled prior image poisons the undo,
// leaving a value that never existed (or failing outright mid-undo).
func TestRecoverTeethSkipTornCheck(t *testing.T) {
	// Construct the sharp case directly: a committed value, then an
	// in-flight update of the same key sitting unsynced at the crash.
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db, tbl := newRecoverySchema(s)
	s.Go("load", func(p *sim.Proc) {
		txn := db.Begin(p)
		txn.Update(tbl, IntKey(9), Row{Int(9), Int(3), Float(1), Str("COMMITTED")})
		if _, err := txn.Commit(); err != nil {
			t.Error(err)
		}
		loser := db.Begin(p)
		loser.Update(tbl, IntKey(9), Row{Int(9), Int(4), Float(2), Str("DOOMED")})
		// Crash takes it: the update record (prior image = COMMITTED row)
		// is the unsynced tail.
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	tail, dropped := db.Log().Crash(storage.TornFlip)
	if dropped == 0 || tail == nil {
		t.Fatal("crash dropped nothing; scenario broken")
	}
	cs := crashState{snap: db.Log().Snapshot(), tail: tail}

	_, honest, hst := recoverFresh(t, cs)
	if !hst.TornDetected {
		t.Fatal("honest recovery did not detect the torn tail")
	}
	row, _, ok := honest.Get(IntKey(9))
	if !ok || row[3].Str() != "COMMITTED" {
		t.Fatalf("honest recovery: key 9 = %v ok=%v, want COMMITTED", row, ok)
	}

	sb := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	bdb, btbl := newRecoverySchema(sb)
	bst, berr := bdb.Recover(cs.snap, resealed(cs.tail))
	if berr != nil {
		// The mangled prior image failed to decode mid-undo: caught as a
		// hard recovery error. Equally detected.
		return
	}
	if bst.TornDetected {
		t.Fatal("resealed tail was still cut: the teeth recovery applied nothing")
	}
	brow, _, bok := btbl.Get(IntKey(9))
	if bok && brow.Equal(row) {
		t.Fatal("un-truncated torn tail went undetected: state equals honest recovery")
	}
}

// TestRecoverCostScalesWithLogSinceCheckpoint pins the emergent-recovery
// contract: with the same history, more frequent checkpoints strictly
// shrink the redo cost window (RedoSince, RedoPages) while leaving the
// recovered state identical.
func TestRecoverCostScalesWithLogSinceCheckpoint(t *testing.T) {
	_, csNone := runCrashWorkload(t, 21, 200, 0, 0, storage.TornNone)
	_, csSparse := runCrashWorkload(t, 21, 200, 0, 100, storage.TornNone)
	_, csDense := runCrashWorkload(t, 21, 200, 0, 10, storage.TornNone)

	_, tNone, stNone := recoverFresh(t, csNone)
	_, tSparse, stSparse := recoverFresh(t, csSparse)
	_, tDense, stDense := recoverFresh(t, csDense)

	if stNone.CheckpointLSN != 0 || stSparse.CheckpointLSN == 0 || stDense.CheckpointLSN == 0 {
		t.Fatalf("checkpoint LSNs: none=%d sparse=%d dense=%d", stNone.CheckpointLSN, stSparse.CheckpointLSN, stDense.CheckpointLSN)
	}
	if !(stDense.RedoSince < stSparse.RedoSince && stSparse.RedoSince < stNone.RedoSince) {
		t.Fatalf("redo window must shrink with checkpoint frequency: none=%d sparse=%d dense=%d",
			stNone.RedoSince, stSparse.RedoSince, stDense.RedoSince)
	}
	if !(len(stDense.RedoPages) <= len(stSparse.RedoPages) && len(stSparse.RedoPages) <= len(stNone.RedoPages)) {
		t.Fatalf("redo pages must shrink with checkpoint frequency: none=%d sparse=%d dense=%d",
			len(stNone.RedoPages), len(stSparse.RedoPages), len(stDense.RedoPages))
	}
	// Checkpoints change recovery cost, never the recovered state. The
	// workloads are identical (same seed; checkpoints add no data records).
	if d := diffTables(tNone, tSparse); d != "" {
		t.Fatalf("sparse-checkpoint recovery diverges: %s", d)
	}
	if d := diffTables(tNone, tDense); d != "" {
		t.Fatalf("dense-checkpoint recovery diverges: %s", d)
	}
}

// TestRecoverEmptyAndTrivialLogs covers the degenerate paths: recovering
// from an empty log, and from a log whose every txn committed cleanly.
func TestRecoverEmptyAndTrivialLogs(t *testing.T) {
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db, _ := newRecoverySchema(s)
	st, err := db.Recover(storage.NewLog().Snapshot(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.Losers != 0 || st.RedoRecords != 0 {
		t.Fatalf("empty-log recovery did work: %+v", st)
	}

	_, cs := runCrashWorkload(t, 3, 50, 0, 0, storage.TornNone)
	_, rtbl, st2 := recoverFresh(t, cs)
	_, otbl := oracleFromDurableLog(t, cs)
	if st2.Losers != 0 || st2.UndoRecords != 0 {
		t.Fatalf("clean history produced losers: %+v", st2)
	}
	if d := diffTables(rtbl, otbl); d != "" {
		t.Fatalf("clean recovery diverges: %s", d)
	}
}
