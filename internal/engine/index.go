package engine

import (
	"fmt"

	"cloudybench/internal/storage"
)

// Index is a secondary B-tree index over one column of a table. Entries are
// keyed by the memcomparable encoding of the indexed column value followed
// by the row's primary key, so equal column values order by primary key and
// a column-range scan is one contiguous tree walk.
//
// The index is DERIVED state: every table mutation — insert, update,
// delete, transaction rollback, and replica WAL replay — funnels through
// Table.updateIndexes, which diffs the visible row before and after the
// write and patches each index accordingly. Because maintenance keys off
// visible-state changes rather than transaction outcomes, an index is an
// exact projection of its base table at every quiescent point on every
// node: rollback restores it exactly (the undo path is just another
// visible-state change) and replicas rebuild the same entries from shipped
// records without index images ever crossing the wire.
type Index struct {
	// Name is the index name, unique within the database.
	Name string
	// ID is a synthetic table id naming the index's page space in WAL
	// records and buffer-pool keys. It shares the TableID namespace with
	// tables (the DB allocates both from one counter).
	ID storage.TableID
	// Col is the indexed column's offset in the table schema.
	Col int

	table   *Table
	tree    *BTree[indexEntry]
	pageFan uint64
}

// indexEntry is what an index tree stores under an entry key. The primary
// key is the suffix of the entry key from pkAt on: the tree already owns
// those bytes, so an entry is pointer-free and never copies its pk.
type indexEntry struct {
	page storage.PageID
	pkAt uint32
}

// indexEntryBytes is the modeled physical size of one index entry (key
// bytes plus heap pointer), used for index page math.
const indexEntryBytes = 32

// newIndex builds an index over the table's current visible rows.
func newIndex(name string, id storage.TableID, t *Table, col int) *Index {
	sizeHint := t.baseRows
	if sizeHint < 4096 {
		sizeHint = 4096
	}
	ix := &Index{
		Name:    name,
		ID:      id,
		Col:     col,
		table:   t,
		tree:    NewBTree[indexEntry](),
		pageFan: storage.PagesFor(sizeHint, indexEntryBytes),
	}
	if ix.pageFan == 0 {
		ix.pageFan = 1
	}
	var ek Key
	t.VisibleScan(func(pk Key, r Row) bool {
		ek = appendEntryKey(ek[:0], r[col], pk)
		ix.put(ek, len(pk))
		return true
	})
	return ix
}

// EntryKey builds the index entry key for a column value and primary key.
func (ix *Index) EntryKey(v Value, pk Key) Key { return appendEntryKey(nil, v, pk) }

// appendEntryKey appends the entry key for v and pk to dst.
func appendEntryKey(dst []byte, v Value, pk Key) []byte {
	dst = growKey(dst, keyValueSize(v)+len(pk))
	return append(appendKeyValue(dst, v), pk...)
}

// scratchEntryKey builds the entry key for v and pk into the table's
// entry-key scratch, which lives as long as ixOps: until the next mutation.
// A grown scratch leaves earlier keys of this mutation in the old array,
// intact, since nothing writes there again.
func (ix *Index) scratchEntryKey(v Value, pk Key) Key {
	t := ix.table
	n := len(t.ixKeys)
	t.ixKeys = appendEntryKey(t.ixKeys, v, pk)
	return t.ixKeys[n:len(t.ixKeys):len(t.ixKeys)]
}

// pageOf assigns an entry to an index page. Pages are content-addressed
// (FNV-1a of the column-key prefix modulo a fixed fan sized from the
// table's base rows): deterministic, identical on primary and replicas,
// and unaffected by aborted transactions — unlike an insertion-sequence
// counter, which a rolled-back insert would desynchronize across nodes.
// Equal column values always share a page, approximating leaf clustering.
func (ix *Index) pageOf(entryKey Key) storage.PageID {
	prefix := entryKey[:len(entryKey)-len(ix.pkSuffix(entryKey))]
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range prefix {
		h ^= uint64(c)
		h *= prime64
	}
	return storage.PageID{Table: ix.ID, Num: h % ix.pageFan}
}

// pkSuffix returns the primary-key portion of an entry key (everything
// after the first encoded value).
func (ix *Index) pkSuffix(entryKey Key) Key {
	_, n, ok := DecodeKeyValue(entryKey)
	if !ok {
		panic(fmt.Sprintf("engine: malformed index entry key %x", []byte(entryKey)))
	}
	return entryKey[n:]
}

// apply patches the index for one visible-state change of primary key pk:
// old/new are the visible rows before/after (nil = absent). It records the
// resulting entry operations on the table's scratch op list so the writing
// transaction can emit WAL records and charge page writes; replica replay
// and rollback discard them.
func (ix *Index) apply(pk Key, old, new Row) {
	var oldV, newV Value
	hasOld := old != nil
	hasNew := new != nil
	if hasOld {
		oldV = old[ix.Col]
	}
	if hasNew {
		newV = new[ix.Col]
	}
	if hasOld && hasNew && oldV.Equal(newV) {
		return // indexed column unchanged; entry key is identical
	}
	if hasOld {
		ek := ix.scratchEntryKey(oldV, pk)
		ix.tree.Delete(ek)
		ix.table.ixOps = append(ix.table.ixOps, IndexOp{Index: ix, Del: true, EntryKey: ek, Page: ix.pageOf(ek)})
	}
	if hasNew {
		ek := ix.scratchEntryKey(newV, pk)
		ix.table.ixOps = append(ix.table.ixOps, IndexOp{Index: ix, EntryKey: ek, Page: ix.put(ek, len(pk))})
	}
}

// put stores the entry for ek, whose last pkLen bytes are the primary key,
// and returns its page.
func (ix *Index) put(ek Key, pkLen int) storage.PageID {
	page := ix.pageOf(ek)
	ix.tree.Set(ek, indexEntry{page: page, pkAt: uint32(len(ek) - pkLen)})
	return page
}

// Scan visits entries with column values in [lo, hi] in (column, pk) order,
// yielding each row's primary key and the index page the entry lives on.
func (ix *Index) Scan(lo, hi Value, fn func(pk Key, page storage.PageID) bool) {
	loK := EncodeKey(lo)
	hiK := append(EncodeKey(hi), 0xFF) // entry keys continue with a pk tag < 0xFF
	ix.tree.AscendRange(loK, hiK, func(k Key, e indexEntry) bool {
		return fn(k[e.pkAt:], e.page)
	})
}

// Walk visits every entry in key order (coherence checking).
func (ix *Index) Walk(fn func(entryKey Key, pk Key) bool) {
	ix.tree.AscendRange(nil, nil, func(k Key, e indexEntry) bool {
		return fn(k, k[e.pkAt:])
	})
}

// Bounds returns the smallest and largest indexed column values currently
// present. ok is false for an empty index.
func (ix *Index) Bounds() (min, max Value, ok bool) {
	loK, _, okLo := ix.tree.Min()
	hiK, _, okHi := ix.tree.Max()
	if !okLo || !okHi {
		return Value{}, Value{}, false
	}
	lo, _, ok1 := DecodeKeyValue(loK)
	hi, _, ok2 := DecodeKeyValue(hiK)
	return lo, hi, ok1 && ok2
}

// IndexOp is one physical index-entry change produced by a table mutation,
// surfaced so the writing transaction can append index WAL records and the
// node layer can charge index page writes.
type IndexOp struct {
	Index *Index
	Del   bool
	// EntryKey is the full entry key (column value ++ primary key). It
	// lives in the table's entry-key scratch and is valid until the table's
	// next mutation: the writing transaction copies it into the DB slab
	// (recordIndexOps), and the index tree copies it into its own arena.
	EntryKey Key
	Page     storage.PageID
}
