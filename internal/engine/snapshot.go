package engine

import (
	"fmt"
	"sort"

	"cloudybench/internal/storage"
)

// DB snapshots capture the logical state a warm-up run leaves behind so sweep
// cells sharing a (SUT, scale, schema, seed) prefix can fork from it instead
// of re-running the warm-up (DESIGN.md §15). A snapshot must be taken at a
// quiescent point — no transactions in flight, no locks held — which the
// evaluator guarantees by draining clients and replication streams first.
//
// What a snapshot carries: per-table delta overlays (rows and tombstones),
// table counters, secondary-index trees, the WAL, and the DB's
// txn/commit/abort counters. What it deliberately omits: the lock table
// (empty at quiescence), and all fast-path scratch (txn free-list, WAL and
// row slabs) — a restored DB rebuilds those lazily, which changes no
// observable behaviour because scratch never escapes the engine.
//
// Snapshot and Restore each clone every tree (BTree.clone): a few slice
// copies of its node and value slabs, with the key arena shared and clipped.
// Stored rows and key bytes are immutable, so the clones share them with the
// source; a snapshot's own trees are only ever read, so any number of cells
// may restore from one snapshot, concurrently, and evolve independently.

type tableSnap struct {
	name      string
	delta     *BTree[deltaVal]
	nextAuto  int64
	appendSeq int64
	liveRows  int64
	ixScans   int64
	fullScans int64
	// indexes holds the index trees in the table's index creation order
	// (deterministic: schema setup runs identically on every node).
	indexes []*BTree[indexEntry]
}

// DBSnapshot is a point-in-time capture of a DB's logical state.
type DBSnapshot struct {
	tables      []tableSnap // sorted by table name
	log         storage.LogSnapshot
	nextTxn     uint64
	nextTableID storage.TableID
	commits     int64
	aborts      int64
}

// Snapshot captures the DB's current logical state. The DB must be quiescent
// (no transactions in flight).
func (db *DB) Snapshot() DBSnapshot {
	names := make([]string, 0, len(db.byName))
	for name := range db.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	snap := DBSnapshot{
		tables:      make([]tableSnap, 0, len(names)),
		log:         db.log.Snapshot(),
		nextTxn:     db.nextTxn,
		nextTableID: db.nextTableID,
		commits:     db.commits,
		aborts:      db.aborts,
	}
	for _, name := range names {
		t := db.byName[name]
		ts := tableSnap{
			name:      name,
			delta:     t.delta.clone(),
			nextAuto:  t.nextAuto,
			appendSeq: t.appendSeq,
			liveRows:  t.liveRows,
			ixScans:   t.ixScans,
			fullScans: t.fullScans,
			indexes:   make([]*BTree[indexEntry], len(t.indexes)),
		}
		for j, ix := range t.indexes {
			ts.indexes[j] = ix.tree.clone()
		}
		snap.tables = append(snap.tables, ts)
	}
	return snap
}

// Restore resets the DB's logical state to a snapshot. The DB must carry the
// same catalog (tables and indexes, created in the same order) as the
// snapshot's source — the evaluator deploys a fresh cluster with the identical
// schema setup, then restores into it. Restore clones the snapshot's trees,
// so DBs restored from one snapshot evolve independently.
func (db *DB) Restore(snap DBSnapshot) error {
	if len(db.byName) != len(snap.tables) {
		return fmt.Errorf("engine: restore: catalog mismatch: %d tables, snapshot has %d", len(db.byName), len(snap.tables))
	}
	for i := range snap.tables {
		ts := &snap.tables[i]
		t := db.byName[ts.name]
		if t == nil {
			return fmt.Errorf("engine: restore: unknown table %q", ts.name)
		}
		if len(t.indexes) != len(ts.indexes) {
			return fmt.Errorf("engine: restore: table %q has %d indexes, snapshot has %d", ts.name, len(t.indexes), len(ts.indexes))
		}
		t.delta = ts.delta.clone()
		t.nextAuto = ts.nextAuto
		t.appendSeq = ts.appendSeq
		t.liveRows = ts.liveRows
		t.ixScans = ts.ixScans
		t.fullScans = ts.fullScans
		t.ixOps, t.ixKeys = t.ixOps[:0], t.ixKeys[:0]
		for j, ix := range t.indexes {
			ix.tree = ts.indexes[j].clone()
		}
	}
	db.log.Restore(snap.log)
	db.nextTxn = snap.nextTxn
	db.nextTableID = snap.nextTableID
	db.commits = snap.commits
	db.aborts = snap.aborts
	// Snapshots are taken at quiescence, so the active-transaction table is
	// empty by construction; clear any leftover entries in the target.
	clear(db.active)
	return nil
}
