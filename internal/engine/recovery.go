package engine

import (
	"fmt"
	"sort"

	"cloudybench/internal/storage"
)

// Crash recovery (DESIGN.md §17). A crashed node loses everything volatile —
// delta overlays, secondary indexes, the lock table, in-flight transactions,
// buffer-pool residency — and keeps only the durable prefix of its WAL (plus,
// possibly, a torn tail: the partial or mangled bytes of the record that was
// mid-write when power failed). Recover rebuilds the logical state of the
// committed history from that prefix, ARIES-style:
//
//  1. Torn-tail check: byte-decode the tail; a checksum or truncation error
//     proves it is garbage and it is cut.
//  2. Analysis: one scan classifies every logged txn as committed (commit
//     record present), aborted (abort record present — its writes were
//     rolled back in place before the crash, so redo must skip them; the
//     marker stands in for ARIES's compensation records), or in-flight
//     (neither: a loser to roll back).
//  3. Redo: repeat history for committed and in-flight txns in LSN order.
//  4. Undo: roll back each loser's data records in reverse LSN order using
//     the logged prior images, then append abort markers so a second crash
//     re-classifies the losers as aborted instead of undoing them again
//     (which would clobber later committed writes to the same keys).
//
// State rebuild always replays the full retained log (the testbed never
// truncates it), which is cheap in wall-clock terms; the *virtual* cost of
// recovery is charged by the node layer from RecoveryStats, where the last
// fuzzy checkpoint bounds the redo window — that separation keeps recovery
// time emergent (∝ log-since-checkpoint) without snapshotting engine state
// at every checkpoint.

// RecoveryStats reports what a recovery pass did, and carries the inputs the
// node layer prices into virtual recovery time.
type RecoveryStats struct {
	Records       int         // total durable records scanned by analysis
	CheckpointLSN storage.LSN // last durable checkpoint record (0 = none)
	RedoStart     storage.LSN // redo window start (checkpoint's StartLSN, else 1)
	RedoRecords   int         // data records replayed (full history)
	RedoSince     int         // records in the redo cost window (LSN >= RedoStart)
	UndoRecords   int         // loser data records rolled back
	Losers        int         // distinct in-flight txns rolled back
	Committed     int         // distinct committed txns
	Aborted       int         // distinct runtime-aborted txns (skipped in redo)
	TornDetected  bool        // torn tail present and cut by the checksum scan
	// RedoPages lists the distinct pages touched inside the redo cost
	// window, in first-touch LSN order (deterministic) — the pages a
	// page-oriented architecture faults in during redo.
	RedoPages []storage.PageID
}

// Recover rebuilds this DB from the durable log of a crashed instance. The
// receiver must be freshly constructed with the identical catalog (schema
// setup runs deterministically on every node) and no writes applied. snap is
// the crashed log's post-crash snapshot (durable prefix only); tornTail is
// the mangled trailing bytes Crash returned, if any.
func (db *DB) Recover(snap storage.LogSnapshot, tornTail []byte) (RecoveryStats, error) {
	var st RecoveryStats
	db.log.Restore(snap)

	// 1. Torn tail: decode by bytes. Any error proves the tail garbage and
	// it is cut (the log already ends at the durable prefix). A clean
	// decode means the record actually hit the platter in full — keep it.
	if len(tornTail) > 0 {
		if rec, _, err := storage.DecodeRecord(tornTail); err != nil {
			st.TornDetected = true
		} else {
			db.log.Append(rec)
		}
	}

	st.Records = db.log.Len()

	// 2. Analysis: classify txns, find the last checkpoint, size the redo
	// structures so the hot redo loop never grows them. Every pass walks the
	// log in place, chunk by chunk.
	committed := make(map[uint64]bool)
	aborted := make(map[uint64]bool)
	var maxTxn uint64
	for recs := range db.log.Chunks() {
		for i := range recs {
			r := &recs[i]
			if r.Txn > maxTxn {
				maxTxn = r.Txn
			}
			switch r.Type {
			case storage.RecCommit:
				committed[r.Txn] = true
			case storage.RecAbort:
				aborted[r.Txn] = true
			case storage.RecCheckpoint:
				ck, err := storage.DecodeCheckpointData(r.Image)
				if err != nil {
					return st, fmt.Errorf("engine: recovery: bad checkpoint at LSN %d: %w", r.LSN, err)
				}
				st.CheckpointLSN = r.LSN
				st.RedoStart = ck.StartLSN
			}
		}
	}
	if st.RedoStart == 0 {
		st.RedoStart = 1
	}
	loserCap := 0
	for recs := range db.log.Chunks() {
		for i := range recs {
			r := &recs[i]
			if isDataRec(r.Type) && !committed[r.Txn] && !aborted[r.Txn] {
				loserCap++
			}
		}
	}

	// 3. Redo: repeat history.
	loserRecs := make([]storage.Record, 0, loserCap)
	pageSeen := make(map[storage.PageID]struct{})
	var err error
	for recs := range db.log.Chunks() {
		loserRecs, err = db.redoPass(recs, committed, aborted, loserRecs, pageSeen, &st)
		if err != nil {
			return st, err
		}
	}

	// 4. Undo: roll losers back in reverse LSN order with the logged prior
	// images, restoring the exact overlay shape each write displaced.
	loserIDs := make(map[uint64]bool)
	for i := range loserRecs {
		loserIDs[loserRecs[i].Txn] = true
	}
	st.Losers = len(loserIDs)
	for i := len(loserRecs) - 1; i >= 0; i-- {
		r := &loserRecs[i]
		t := db.byID[r.Table]
		if t == nil {
			return st, fmt.Errorf("engine: recovery undo for unknown table id %d", r.Table)
		}
		existed := r.Flags&storage.FlagPriorExisted != 0
		inDelta := r.Flags&storage.FlagPriorInDelta != 0
		var prior Row
		if existed {
			prior, err = db.decodeRow(r.Prior)
			if err != nil {
				return st, fmt.Errorf("engine: recovery undo at LSN %d: %w", r.LSN, err)
			}
		}
		t.undoSet(Key(r.Key), prior, r.Page, existed, inDelta)
		st.UndoRecords++
	}
	// Durable abort markers close the losers out: a later crash must see them
	// as already-rolled-back, or its undo would clobber any newer committed
	// writes to the same keys.
	ids := make([]uint64, 0, len(loserIDs))
	for id := range loserIDs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		db.log.Append(storage.Record{Type: storage.RecAbort, Txn: id})
	}
	db.log.Sync()

	st.Committed = len(committed)
	st.Aborted = len(aborted)
	db.commits = int64(st.Committed)
	db.aborts = int64(st.Aborted + st.Losers)
	db.BumpTxnFloor(maxTxn)
	clear(db.active)
	return st, nil
}

func isDataRec(t storage.RecType) bool {
	switch t {
	case storage.RecInsert, storage.RecUpdate, storage.RecDelete:
		return true
	}
	return false
}

// redoPass repeats history: every data record of a committed or in-flight
// txn is re-applied in LSN order (runtime-aborted txns are skipped — their
// abort markers certify the rollback already happened in place). In-flight
// txns' records are collected for the undo pass. Records inside the cost
// window (LSN >= RedoStart) are tallied, with first-touch page tracking, so
// the node layer can price redo I/O.
//
// loserRecs and pageSeen arrive pre-sized from analysis, so the loop itself
// performs no slice growth in the common case.
//
//detlint:hotpath
func (db *DB) redoPass(recs []storage.Record, committed, aborted map[uint64]bool, loserRecs []storage.Record, pageSeen map[storage.PageID]struct{}, st *RecoveryStats) ([]storage.Record, error) {
	var cache *Table
	for i := range recs {
		r := &recs[i]
		switch r.Type {
		case storage.RecInsert, storage.RecUpdate, storage.RecDelete, storage.RecIndexPut, storage.RecIndexDelete:
		default:
			continue
		}
		if aborted[r.Txn] {
			continue
		}
		if r.LSN >= st.RedoStart {
			st.RedoSince++
			if _, ok := pageSeen[r.Page]; !ok {
				pageSeen[r.Page] = struct{}{}
				st.RedoPages = append(st.RedoPages, r.Page)
			}
		}
		if !isDataRec(r.Type) {
			// Index records carry cost (the page accounting above) but no
			// state: index entries re-derive from the heap replay.
			continue
		}
		if !committed[r.Txn] {
			loserRecs = append(loserRecs, *r)
		}
		st.RedoRecords++
		if err := db.applyRecord(r, &cache); err != nil {
			return loserRecs, err
		}
	}
	return loserRecs, nil
}
