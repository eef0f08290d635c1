package engine

import (
	"bytes"
	"errors"
	"fmt"

	"cloudybench/internal/storage"
)

// Column is one schema column.
type Column struct {
	Name string
	Kind Kind
}

// Schema describes a table: columns, primary-key columns, and the average
// physical row size used for page math.
type Schema struct {
	Name        string
	Cols        []Column
	KeyCols     []int // indexes into Cols forming the primary key
	AvgRowBytes int
}

// ColIndex returns the index of the named column, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// appendKeyOf appends the primary key of r to dst, encoding the key columns
// straight from the row.
func (s *Schema) appendKeyOf(dst []byte, r Row) Key {
	need := 0
	for _, ci := range s.KeyCols {
		need += keyValueSize(r[ci])
	}
	dst = growKey(dst, need)
	for _, ci := range s.KeyCols {
		dst = appendKeyValue(dst, r[ci])
	}
	return dst
}

// Validate checks structural sanity of the schema.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return errors.New("engine: schema without name")
	}
	if len(s.Cols) == 0 {
		return fmt.Errorf("engine: table %s has no columns", s.Name)
	}
	if len(s.KeyCols) == 0 {
		return fmt.Errorf("engine: table %s has no primary key", s.Name)
	}
	for _, ci := range s.KeyCols {
		if ci < 0 || ci >= len(s.Cols) {
			return fmt.Errorf("engine: table %s key column %d out of range", s.Name, ci)
		}
	}
	if s.AvgRowBytes <= 0 {
		return fmt.Errorf("engine: table %s has no row size estimate", s.Name)
	}
	return nil
}

// RowGen deterministically materializes the base row with the given dense
// primary key id in [1, baseRows] into dst's storage — append(dst[:0], ...) —
// and returns it; a nil dst yields a fresh row. The returned row must have
// that id as its primary key, and its values slice shares storage with
// nothing but dst. Its string columns may be views of immutable bytes the
// generator owns (a StrSlab), which a caller may keep for as long as it
// likes.
type RowGen func(dst Row, id int64) Row

type deltaVal struct {
	row  Row // nil marks a tombstone
	page storage.PageID
}

// Table is a primary-key table: a deterministic generator provides the
// initial load (ids 1..baseRows, laid out densely on pages) and a B-tree
// delta overlay holds every written row. All reads check the delta first.
// The table also answers "which page does this row live on?", which the
// node layer uses to charge buffer and I/O costs.
type Table struct {
	ID     storage.TableID
	Schema *Schema

	baseRows    int64
	gen         RowGen
	rowsPerPage int64
	basePages   uint64

	delta     *BTree[deltaVal]
	nextAuto  int64 // next auto-increment id to hand out
	appendSeq int64 // physical slots assigned to post-load inserts
	liveRows  int64

	// indexes holds secondary indexes in creation order (deterministic:
	// schema setup runs identically on every node). ixOps is the per-write
	// scratch list of physical index-entry changes, reset at the start of
	// each mutation — writing transactions read it to emit index WAL
	// records; rollback and replica replay let the next write overwrite it.
	// ixKeys holds the bytes of its entry keys and is reset with it.
	indexes []*Index
	ixByCol map[int]*Index
	ixOps   []IndexOp
	ixKeys  []byte

	// scan counters: how many range queries each plan served (reports).
	ixScans, fullScans int64
}

// NewTable creates a table. baseRows may be zero (fully delta-backed, as in
// TPC-C); if positive, gen must be non-nil and rows 1..baseRows exist
// virtually with PK = Int(id).
func NewTable(id storage.TableID, schema *Schema, baseRows int64, gen RowGen) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if baseRows > 0 && gen == nil {
		return nil, fmt.Errorf("engine: table %s has base rows but no generator", schema.Name)
	}
	t := &Table{
		ID:          id,
		Schema:      schema,
		baseRows:    baseRows,
		gen:         gen,
		rowsPerPage: storage.RowsPerPage(schema.AvgRowBytes),
		basePages:   storage.PagesFor(baseRows, schema.AvgRowBytes),
		delta:       NewBTree[deltaVal](),
		nextAuto:    baseRows + 1,
		liveRows:    baseRows,
	}
	return t, nil
}

// BaseRows returns the generator-backed row count.
func (t *Table) BaseRows() int64 { return t.baseRows }

// LiveRows returns the current number of visible rows.
func (t *Table) LiveRows() int64 { return t.liveRows }

// MaxID returns the largest primary-key id ever assigned (base or auto),
// which access distributions use as the key-space bound.
func (t *Table) MaxID() int64 { return t.nextAuto - 1 }

// NextAutoID hands out the next dense auto-increment id (INSERT ... DEFAULT).
func (t *Table) NextAutoID() int64 {
	id := t.nextAuto
	t.nextAuto++
	return id
}

// BumpAutoID raises the auto-increment floor to at least id+1 (used by
// replicas applying shipped inserts and by explicit-key inserts).
func (t *Table) BumpAutoID(id int64) {
	if id >= t.nextAuto {
		t.nextAuto = id + 1
	}
}

// Pages returns the current physical page count (base + appended).
func (t *Table) Pages() uint64 {
	appended := storage.PagesFor(t.appendSeq, t.Schema.AvgRowBytes)
	return t.basePages + appended
}

// PageOfBase returns the page holding generator row id.
func (t *Table) PageOfBase(id int64) storage.PageID {
	return storage.PageID{Table: t.ID, Num: uint64((id - 1) / t.rowsPerPage)}
}

func (t *Table) nextAppendPage() storage.PageID {
	page := storage.PageID{Table: t.ID, Num: t.basePages + uint64(t.appendSeq/t.rowsPerPage)}
	t.appendSeq++
	return page
}

func (t *Table) isBaseKey(k Key) (int64, bool) {
	id, ok := DecodeIntKey(k)
	if !ok || id < 1 || id > t.baseRows {
		return 0, false
	}
	return id, true
}

// Get returns the visible row under k and the page it resides on.
func (t *Table) Get(k Key) (Row, storage.PageID, bool) { return t.GetInto(k, nil) }

// GetInto is Get with caller-owned row scratch: a row the overlay holds is
// returned as stored (immutable, shared), a base row is materialized into
// dst's storage. Either way the result is valid only until the caller reuses
// dst, and k is not retained.
//
//detlint:hotpath
func (t *Table) GetInto(k Key, dst Row) (Row, storage.PageID, bool) {
	if dv, ok := t.delta.Get(k); ok {
		if dv.row == nil {
			return nil, dv.page, false // tombstone
		}
		return dv.row, dv.page, true
	}
	if id, ok := t.isBaseKey(k); ok {
		return t.gen(dst, id), t.PageOfBase(id), true
	}
	return nil, storage.PageID{}, false
}

// visible reports whether a row is visible under k, without materializing it.
func (t *Table) visible(k Key) bool {
	if dv, ok := t.delta.Get(k); ok {
		return dv.row != nil
	}
	_, ok := t.isBaseKey(k)
	return ok
}

// ErrDuplicateKey is returned when inserting an existing primary key.
var ErrDuplicateKey = errors.New("engine: duplicate primary key")

// Insert adds a new row, assigning it a physical page. The caller must hold
// the X lock. It fails on duplicate keys.
//
// The table takes ownership of r: callers must not mutate it after a
// successful write (the workloads all build fresh rows per write, so a
// defensive clone would only feed the allocator — DESIGN.md §15). k stays
// the caller's: the overlay B-tree copies key bytes into its own arena.
func (t *Table) Insert(k Key, r Row) (storage.PageID, error) {
	page, _, err := t.insert(k, r)
	return page, err
}

// insert is Insert that also reports whether k had an overlay entry (row or
// tombstone) before the write, which a transaction's undo needs. Each of
// the three writers finds a key the overlay holds in one descent and writes
// through Ref; a base row or a new key takes one Set more.
func (t *Table) insert(k Key, r Row) (page storage.PageID, inDelta bool, err error) {
	if dv := t.delta.Ref(k); dv != nil {
		if dv.row != nil {
			return storage.PageID{}, true, ErrDuplicateKey
		}
		// Re-insert over tombstone reuses the row's original page.
		dv.row = r
		t.liveRows++
		t.refreshIndexes(k, nil)
		return dv.page, true, nil
	}
	if _, ok := t.isBaseKey(k); ok {
		return storage.PageID{}, false, ErrDuplicateKey
	}
	page = t.nextAppendPage()
	t.delta.Set(k, deltaVal{row: r, page: page})
	t.liveRows++
	if id, ok := DecodeIntKey(k); ok {
		t.BumpAutoID(id)
	}
	t.refreshIndexes(k, nil)
	return page, false, nil
}

// InsertAt adds a row at a specific page (replica replay of a shipped
// insert, keeping page identity consistent with the primary). Like Insert,
// it takes ownership of r — replay hands over rows decoded from immutable
// record images — and copies k.
func (t *Table) InsertAt(k Key, r Row, page storage.PageID) {
	old := t.visibleForIndex(k)
	// One overlay descent: Set returns the displaced entry, which tells
	// idempotent overwrite (visible row replaced in place) apart from a
	// fresh insert or a re-insert over a tombstone (row becomes visible).
	dv, replaced := t.delta.Set(k, deltaVal{row: r, page: page})
	if !replaced || dv.row == nil {
		t.liveRows++
		if id, ok := DecodeIntKey(k); ok {
			t.BumpAutoID(id)
		}
	}
	t.refreshIndexes(k, old)
}

// ErrRowNotFound is returned for updates/deletes of missing rows.
var ErrRowNotFound = errors.New("engine: row not found")

// Update replaces the row under k, returning the page and the old row (for
// undo). The caller must hold the X lock. The table takes ownership of r
// (see Insert). A prior image that lived only in the base table is
// materialized into scratch (nil for a fresh row), so old is valid only
// until the caller reuses scratch.
func (t *Table) Update(k Key, r Row, scratch Row) (storage.PageID, Row, error) {
	page, old, _, err := t.write(k, r, scratch)
	return page, old, err
}

// Delete tombstones the row under k, returning the page and old row (in
// scratch when it lived only in the base table — see Update). The caller
// must hold the X lock.
func (t *Table) Delete(k Key, scratch Row) (storage.PageID, Row, error) {
	page, old, _, err := t.write(k, nil, scratch)
	return page, old, err
}

// write replaces the visible row under k with r, a nil r tombstoning it, and
// also reports whether k had an overlay entry before the write (see insert).
func (t *Table) write(k Key, r Row, scratch Row) (page storage.PageID, old Row, inDelta bool, err error) {
	if dv := t.delta.Ref(k); dv != nil {
		if dv.row == nil {
			return storage.PageID{}, nil, true, ErrRowNotFound
		}
		old, page = dv.row, dv.page
		dv.row = r
		inDelta = true
	} else if id, ok := t.isBaseKey(k); ok {
		old, page = t.gen(scratch, id), t.PageOfBase(id)
		t.delta.Set(k, deltaVal{row: r, page: page})
	} else {
		return storage.PageID{}, nil, false, ErrRowNotFound
	}
	if r == nil {
		t.liveRows--
	}
	t.refreshIndexes(k, old)
	return page, old, inDelta, nil
}

// UpdateAt applies a replicated update image at the given page, taking
// ownership of r (see InsertAt).
func (t *Table) UpdateAt(k Key, r Row, page storage.PageID) {
	old := t.visibleForIndex(k)
	t.delta.Set(k, deltaVal{row: r, page: page})
	t.refreshIndexes(k, old)
}

// DeleteAt applies a replicated delete at the given page.
func (t *Table) DeleteAt(k Key, page storage.PageID) {
	old := t.visibleForIndex(k)
	dv, replaced := t.delta.Set(k, deltaVal{row: nil, page: page})
	visible := dv.row != nil
	if !replaced {
		_, visible = t.isBaseKey(k)
	}
	if visible {
		t.liveRows--
	}
	t.refreshIndexes(k, old)
}

// undoSet restores the exact prior delta state. wasDelta records whether
// the key had a delta entry (row or tombstone) before the transaction's
// write: a prior value that lived only in the base table is restored by
// dropping the overlay, NOT by materializing the base image as a delta
// entry — that would be visible-state correct but would diverge the
// overlay from replicas, which never hear about aborted writes (the
// convergence invariant compares overlays byte for byte). Used by
// transaction rollback.
func (t *Table) undoSet(k Key, prior Row, page storage.PageID, existedBefore, wasDelta bool) {
	old := t.visibleForIndex(k)
	visible := t.visible(k)
	switch {
	case existedBefore && wasDelta:
		// prior is the exact row object the transaction displaced; rows are
		// immutable once written, so restoring it uncloned is safe.
		t.delta.Set(k, deltaVal{row: prior, page: page})
		if !visible {
			t.liveRows++
		}
	case existedBefore:
		// Prior value lived only in the base table: the base row shows
		// through again once the overlay entry is gone.
		t.delta.Delete(k)
		if !visible {
			t.liveRows++
		}
	case wasDelta:
		// Insert over a tombstone: put the tombstone back.
		if visible {
			t.liveRows--
		}
		t.delta.Set(k, deltaVal{row: nil, page: page})
	default:
		// Fresh insert: drop the entry entirely.
		if visible {
			t.liveRows--
		}
		t.delta.Delete(k)
	}
	t.refreshIndexes(k, old)
}

// DeltaLen returns the number of delta entries (rows + tombstones): the
// count ScanDelta visits.
func (t *Table) DeltaLen() int { return t.delta.Len() }

// ScanDelta visits every delta entry — live rows AND tombstones — in key
// order. The replica-convergence checker uses it to compare a replica's
// overlay against the primary's byte for byte: tombstones matter there
// (a missing tombstone is a lost delete), so unlike VisibleScan it does
// not skip them. row is nil for tombstones.
func (t *Table) ScanDelta(fn func(k Key, row Row, tombstone bool) bool) {
	t.delta.AscendRange(nil, nil, func(k Key, dv deltaVal) bool {
		return fn(k, dv.row, dv.row == nil)
	})
}

// VisibleScan visits every visible row in primary-key order, merging the
// generator-backed base rows with the delta overlay. It backs eager index
// builds, the full-scan query plan, and the IndexCoherent checker's
// ground-truth projection.
func (t *Table) VisibleScan(fn func(k Key, r Row) bool) {
	type dent struct {
		k   Key
		row Row // nil = tombstone, suppresses the base row
	}
	var delta []dent
	t.delta.AscendRange(nil, nil, func(k Key, dv deltaVal) bool {
		delta = append(delta, dent{k: k, row: dv.row})
		return true
	})
	di := 0
	for id := int64(1); id <= t.baseRows; id++ {
		k := IntKey(id)
		for di < len(delta) && bytes.Compare(delta[di].k, k) < 0 {
			if delta[di].row != nil && !fn(delta[di].k, delta[di].row) {
				return
			}
			di++
		}
		if di < len(delta) && bytes.Equal(delta[di].k, k) {
			if delta[di].row != nil && !fn(delta[di].k, delta[di].row) {
				return
			}
			di++
			continue
		}
		if !fn(k, t.gen(nil, id)) {
			return
		}
	}
	for ; di < len(delta); di++ {
		if delta[di].row != nil && !fn(delta[di].k, delta[di].row) {
			return
		}
	}
}

// CreateIndex builds a secondary index over the named column, eagerly
// materialized from the table's current visible rows. id is the synthetic
// TableID naming the index's page space (allocated by the DB). One index
// per column is supported.
func (t *Table) CreateIndex(name string, id storage.TableID, colName string) (*Index, error) {
	col := t.Schema.ColIndex(colName)
	if col < 0 {
		return nil, fmt.Errorf("engine: index %s: unknown column %q in table %s", name, colName, t.Schema.Name)
	}
	switch t.Schema.Cols[col].Kind {
	case KindInt, KindFloat, KindString:
	default:
		return nil, fmt.Errorf("engine: index %s: cannot index %v column %q", name, t.Schema.Cols[col].Kind, colName)
	}
	if t.ixByCol == nil {
		t.ixByCol = make(map[int]*Index)
	}
	if _, dup := t.ixByCol[col]; dup {
		return nil, fmt.Errorf("engine: table %s already has an index on column %q", t.Schema.Name, colName)
	}
	ix := newIndex(name, id, t, col)
	t.indexes = append(t.indexes, ix)
	t.ixByCol[col] = ix
	return ix, nil
}

// Indexes returns the table's secondary indexes in creation order.
func (t *Table) Indexes() []*Index { return t.indexes }

// IndexOps returns the physical index-entry changes recorded by the most
// recent mutation of this table (valid until the next mutation). Writing
// transactions read it to emit index WAL records and charge index pages.
func (t *Table) IndexOps() []IndexOp { return t.ixOps }

// visibleForIndex returns the visible row under k, or nil — but only when
// the table has indexes (the lookup exists solely to diff index state
// around a mutation, so index-free tables skip it entirely).
func (t *Table) visibleForIndex(k Key) Row {
	if len(t.indexes) == 0 {
		return nil
	}
	if r, _, ok := t.Get(k); ok {
		return r
	}
	return nil
}

// refreshIndexes diffs the visible row under k against its pre-mutation
// image and patches every index, recording the entry changes on ixOps.
// Centralizing maintenance here — below transactions, below replay — is
// what makes indexes exact projections on every node: rollback and replica
// replay are just more visible-state changes.
func (t *Table) refreshIndexes(k Key, old Row) {
	if len(t.indexes) == 0 {
		return
	}
	t.ixOps, t.ixKeys = t.ixOps[:0], t.ixKeys[:0]
	var cur Row
	if r, _, ok := t.Get(k); ok {
		cur = r
	}
	for _, ix := range t.indexes {
		ix.apply(k, old, cur)
	}
}
