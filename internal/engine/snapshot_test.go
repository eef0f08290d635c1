package engine

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cloudybench/internal/sim"
)

// snapshotFixture returns an indexed table's DB (the catalog every fork
// shares) with 100 base rows.
func snapshotFixture() (*DB, *Table) {
	db := NewDB(sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)))
	tbl := db.MustCreateTable(indexedSchema(), 100, genItem)
	db.MustCreateIndex("items", "ix_items_group", "IT_GROUP")
	return db, tbl
}

// writeItems inserts rows [lo, hi) (base rows exist already) and moves each
// one's group, so both the overlay and the index tree take inserts and
// deletes.
func writeItems(t *testing.T, tbl *Table, lo, hi int64, tag string) {
	for id := lo; id < hi; id++ {
		k := IntKey(id)
		if id > tbl.BaseRows() {
			if _, err := tbl.Insert(k, Row{Int(id), Int(id % 5), Float(1), Str(tag)}); err != nil {
				t.Error(err)
				return
			}
		}
		if _, _, err := tbl.Update(k, Row{Int(id), Int(id % 7), Float(2), Str(tag)}, nil); err != nil {
			t.Error(err)
			return
		}
	}
}

// dumpDB renders a table's overlay and index entries in key order.
func dumpDB(tbl *Table) string {
	var b strings.Builder
	tbl.ScanDelta(func(k Key, row Row, tomb bool) bool {
		fmt.Fprintf(&b, "%x %x %v\n", k, EncodeRow(nil, row), tomb)
		return true
	})
	for _, ix := range tbl.Indexes() {
		ix.Walk(func(ek, pk Key) bool {
			fmt.Fprintf(&b, "%s %x %x\n", ix.Name, ek, pk)
			return true
		})
	}
	return b.String()
}

// TestSnapshotForksEvolveIndependently restores one snapshot into several
// DBs concurrently while the source keeps writing, then has every fork
// write rows of its own. The clones share the key arena and rows with the
// snapshot (BTree.clone), so under -race this is the check that nothing
// shared is written: each fork must hold exactly the snapshot plus its own
// writes, and the snapshot must still restore to what it captured.
func TestSnapshotForksEvolveIndependently(t *testing.T) {
	src, tbl := snapshotFixture()
	writeItems(t, tbl, 90, 3000, "warm")
	snap := src.Snapshot()
	captured := dumpDB(tbl)

	forks := make([]string, 4)
	var wg sync.WaitGroup
	for f := range forks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db, tbl := snapshotFixture()
			if err := db.Restore(snap); err != nil {
				t.Error(err)
				return
			}
			if dumpDB(tbl) != captured {
				t.Errorf("fork %d: restored state differs from the snapshot", f)
			}
			lo := int64(10_000 * (f + 1))
			writeItems(t, tbl, lo, lo+1500, fmt.Sprintf("fork%d", f))
			forks[f] = dumpDB(tbl)
		}()
	}
	writeItems(t, tbl, 3000, 6000, "source")
	wg.Wait()

	for f, got := range forks {
		db, tbl := snapshotFixture()
		if err := db.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if dumpDB(tbl) != captured {
			t.Fatalf("the snapshot no longer restores to what it captured (after fork %d)", f)
		}
		lo := int64(10_000 * (f + 1))
		writeItems(t, tbl, lo, lo+1500, fmt.Sprintf("fork%d", f))
		if want := dumpDB(tbl); got != want {
			t.Errorf("fork %d: concurrent fork differs from a serial replay of its writes", f)
		}
	}
}

// TestSnapshotSurvivesInPlaceOverlayWrites updates and deletes, through
// transactions, keys the overlay already holds when the snapshot is taken.
// Such a write finds the key's value with BTree.Ref and overwrites it where
// it lies, so it must land in the writing DB's own value slab: the snapshot,
// and every DB restored from it, must still read the rows it captured.
func TestSnapshotSurvivesInPlaceOverlayWrites(t *testing.T) {
	src, tbl := snapshotFixture()
	writeItems(t, tbl, 90, 200, "warm")
	snap := src.Snapshot()
	captured := dumpDB(tbl)
	updated, deleted := IntKey(95), IntKey(150) // a base row and an insert, both overlaid
	want := func(tbl *Table) string {
		var b strings.Builder
		for _, k := range []Key{updated, deleted} {
			row, _, ok := tbl.Get(k)
			fmt.Fprintf(&b, "%x %v;", EncodeRow(nil, row), ok)
		}
		return b.String()
	}
	old := want(tbl)
	// overwrite updates and deletes the two keys in place on db.
	overwrite := func(db *DB, tbl *Table) {
		for _, k := range []Key{updated, deleted} {
			if tbl.delta.Ref(k) == nil {
				t.Fatalf("key %x is not in the overlay", k)
			}
		}
		db.sim.Go("overwrite", func(p *sim.Proc) {
			txn := db.Begin(p)
			if _, err := txn.Update(tbl, updated, Row{Int(95), Int(6), Float(3), Str("in-place")}); err != nil {
				t.Error(err)
			}
			if _, err := txn.Delete(tbl, deleted); err != nil {
				t.Error(err)
			}
			if _, err := txn.Commit(); err != nil {
				t.Error(err)
			}
		})
		if err := db.sim.Run(); err != nil {
			t.Fatal(err)
		}
		if want(tbl) == old {
			t.Fatal("the in-place writes changed nothing")
		}
	}
	// restored returns a DB restored from snap, checked against captured.
	restored := func(when string) (*DB, *Table) {
		db, tbl := snapshotFixture()
		if err := db.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if dumpDB(tbl) != captured || want(tbl) != old {
			t.Fatalf("%s: a restore no longer reads what the snapshot captured", when)
		}
		return db, tbl
	}

	overwrite(src, tbl)
	fork, forkTbl := restored("after in-place writes on the source")
	overwrite(fork, forkTbl)
	restored("after in-place writes on a restored DB")
}
