package engine

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// DB is one database instance: a catalog of tables, a lock table, and a
// write-ahead log. The read-write node owns the authoritative DB; each
// read-only replica owns a separate DB instance (same schemas and
// generators) that applies shipped WAL records via Apply.
type DB struct {
	sim      *sim.Sim
	byName   map[string]*Table
	byID     map[storage.TableID]*Table
	ixByName map[string]*Index
	locks    *LockTable
	log      *storage.Log

	nextTxn     uint64
	nextTableID storage.TableID

	// active is the active-transaction table: txns that have logged at least
	// one record but not yet committed or aborted, keyed to their first LSN.
	// Fuzzy checkpoints capture it; crash recovery rolls back whatever it
	// held at the failure instant (reconstructed from the log).
	active map[uint64]storage.LSN

	// Fast-path scratch (DESIGN.md §15). txnFree recycles finished Txn
	// objects — a deterministic free-list, not sync.Pool, so reuse order is
	// a pure function of the commit/abort order and the rawgo rule stays
	// clean. slab holds the stable copies of record Key/Image bytes
	// referenced by the WAL, and valSlab the rows replay decodes (see
	// newRow).
	txnFree []*Txn
	slab    []byte
	valSlab []Value

	observer Observer

	commits int64
	aborts  int64
}

// NewDB returns an empty database bound to the simulation.
func NewDB(s *sim.Sim) *DB {
	return &DB{
		sim:    s,
		byName: make(map[string]*Table),
		byID:   make(map[storage.TableID]*Table),
		locks:  NewLockTable(s),
		log:    storage.NewLog(),
		active: make(map[uint64]storage.LSN),
	}
}

// CreateTable registers a table with the given schema and generator-backed
// base rows (baseRows may be zero).
func (db *DB) CreateTable(schema *Schema, baseRows int64, gen RowGen) (*Table, error) {
	if _, exists := db.byName[schema.Name]; exists {
		return nil, fmt.Errorf("engine: table %s already exists", schema.Name)
	}
	db.nextTableID++
	t, err := NewTable(db.nextTableID, schema, baseRows, gen)
	if err != nil {
		return nil, err
	}
	db.byName[schema.Name] = t
	db.byID[t.ID] = t
	return t, nil
}

// MustCreateTable is CreateTable that panics on error (setup code).
func (db *DB) MustCreateTable(schema *Schema, baseRows int64, gen RowGen) *Table {
	t, err := db.CreateTable(schema, baseRows, gen)
	if err != nil {
		panic(err)
	}
	return t
}

// CreateIndex builds a secondary index over table.colName, allocating the
// index's page-space id from the same counter as tables. Schema setup runs
// identically on every node, so the id — which names index pages in WAL
// records and buffer keys — matches across primary and replicas.
func (db *DB) CreateIndex(tableName, ixName, colName string) (*Index, error) {
	t := db.byName[tableName]
	if t == nil {
		return nil, fmt.Errorf("engine: index %s: unknown table %q", ixName, tableName)
	}
	if _, dup := db.ixByName[ixName]; dup {
		return nil, fmt.Errorf("engine: index %s already exists", ixName)
	}
	db.nextTableID++
	ix, err := t.CreateIndex(ixName, db.nextTableID, colName)
	if err != nil {
		db.nextTableID--
		return nil, err
	}
	if db.ixByName == nil {
		db.ixByName = make(map[string]*Index)
	}
	db.ixByName[ixName] = ix
	return ix, nil
}

// MustCreateIndex is CreateIndex that panics on error (setup code).
func (db *DB) MustCreateIndex(tableName, ixName, colName string) *Index {
	ix, err := db.CreateIndex(tableName, ixName, colName)
	if err != nil {
		panic(err)
	}
	return ix
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.byName[name] }

// Tables returns every table by name. It is the catalog map itself, so
// iteration order is not deterministic: callers that need an order sort the
// names.
func (db *DB) Tables() map[string]*Table { return db.byName }

// Log returns the database's WAL (the RW node's replication source).
func (db *DB) Log() *storage.Log { return db.log }

// Locks exposes the lock table (tests and tuning).
func (db *DB) Locks() *LockTable { return db.locks }

// Stats returns commit and abort counts.
func (db *DB) Stats() (commits, aborts int64) { return db.commits, db.aborts }

// ReadInto performs a lock-free snapshot read, the path replicas use to
// serve read-only queries at their current replay position. A non-nil dst
// is caller-owned row scratch (see Table.GetInto).
//
//detlint:hotpath
func (db *DB) ReadInto(table string, k Key, dst Row) (Row, storage.PageID, bool) {
	t := db.byName[table]
	if t == nil {
		return nil, storage.PageID{}, false
	}
	return t.GetInto(k, dst)
}

// Apply replays one shipped WAL record into this (replica) instance.
// Commit, begin, abort, and checkpoint records are no-ops at the data layer.
//
// Record images are immutable once shipped, and the replica keeps them by
// reference: a decoded row goes into the delta overlay uncloned, and its
// string columns are views of the image bytes. Every image source honours
// this — the primary's append-only DB slab, the durable log chunks, and the
// fresh bytes Log.Crash returns for a torn tail — so a caller must never
// hand Apply, ApplyBatch or ApplyRefs an image it will write to later. Key
// bytes are copied by the overlay B-tree.
func (db *DB) Apply(rec storage.Record) error {
	var cache *Table
	return db.applyRecord(&rec, &cache)
}

// ApplyBatch replays a whole shipped batch in one pass, under Apply's
// ownership rule: the table pointer is cached across runs of records
// touching the same table, and rows decode into the DB value slab with
// strings aliasing the images, so steady-state replay allocates nothing but
// slab chunks. Records apply in exactly slice order — the visible result is
// byte-identical to calling Apply once per record.
//
//detlint:hotpath
func (db *DB) ApplyBatch(recs []storage.Record) error {
	var cache *Table
	for i := range recs {
		if err := db.applyRecord(&recs[i], &cache); err != nil {
			return err
		}
	}
	return nil
}

// ApplyRefs is ApplyBatch over references: a replication stream holds its
// backlog as pointers to the primary's WAL slots and applies them in place,
// reading each record and writing none.
//
//detlint:hotpath
func (db *DB) ApplyRefs(recs []*storage.Record) error {
	var cache *Table
	for _, rec := range recs {
		if err := db.applyRecord(rec, &cache); err != nil {
			return err
		}
	}
	return nil
}

// applyRecord replays one record, reusing *cache when the record names the
// same table as its predecessor.
func (db *DB) applyRecord(rec *storage.Record, cache **Table) error {
	switch rec.Type {
	case storage.RecInsert, storage.RecUpdate, storage.RecDelete:
	default:
		return nil
	}
	t := *cache
	if t == nil || t.ID != rec.Table {
		t = db.byID[rec.Table]
		if t == nil {
			return fmt.Errorf("engine: replay for unknown table id %d", rec.Table) //detlint:allow hotalloc(corrupt-stream error path, never taken in steady-state replay)
		}
		*cache = t
	}
	key := Key(rec.Key)
	switch rec.Type {
	case storage.RecInsert:
		row, err := db.decodeRow(rec.Image)
		if err != nil {
			return fmt.Errorf("engine: replay insert: %w", err)
		}
		t.InsertAt(key, row, rec.Page)
	case storage.RecUpdate:
		row, err := db.decodeRow(rec.Image)
		if err != nil {
			return fmt.Errorf("engine: replay update: %w", err)
		}
		t.UpdateAt(key, row, rec.Page)
	case storage.RecDelete:
		t.DeleteAt(key, rec.Page)
	}
	return nil
}

// ErrTxnDone is returned when using a committed or aborted transaction.
var ErrTxnDone = errors.New("engine: transaction already finished")

type undoEntry struct {
	table *Table
	// key is the slab copy the write's WAL record holds (DB.stable), so it
	// outlives whatever scratch buffer the caller encoded the key in.
	key     Key
	prior   Row
	page    storage.PageID
	existed bool
	// inDelta records whether the key had a delta entry (row or tombstone)
	// before this write — rollback must restore the overlay exactly, not
	// just the visible value (see Table.undoSet).
	inDelta bool
}

// Txn is a read-write transaction under strict two-phase locking: locks are
// held until commit or abort, updates apply in place with undo images, and
// the redo stream is appended to the WAL at commit (so replicas only ever
// see committed changes).
//
// Finished transactions return to the DB free-list, so a *Txn handle must be
// dropped once Commit or Abort returns: the done flag rejects a stray second
// finish only until the object is reissued by a later Begin.
type Txn struct {
	db   *DB
	p    *sim.Proc
	id   uint64
	done bool
	// locks is the txn's lock set in acquisition order: the lock table's
	// own state for each key this txn became a holder of (AcquireKey says
	// when), which is all release needs.
	locks []*lockState
	// keyBuf is the composite lock-key scratch (table name, NUL, row key),
	// pkBuf the primary-key scratch Insert encodes into, and priorBuf the
	// row a base-only before-image is materialized in (it is encoded into
	// the WAL record's Prior and shown to an observer, never retained).
	keyBuf   []byte
	pkBuf    []byte
	priorBuf Row
	// pending holds this txn's WAL records as already appended to the log
	// (write-ahead discipline: redo + undo images reach the log at write
	// time, before commit). Commit appends its commit record and returns
	// them to the shipping layer; the payload bytes are slab-backed and
	// immortal — the log retains them whether the txn commits or aborts.
	undo    []undoEntry
	pending []storage.Record
	// lastIxPages holds the index pages touched by the most recent write
	// (valid until the next write); the node layer charges them as page
	// writes alongside the heap page.
	lastIxPages []storage.PageID
}

// Begin starts a transaction executed by process p, reusing a finished Txn
// from the free-list when one is available.
func (db *DB) Begin(p *sim.Proc) *Txn {
	db.nextTxn++
	var t *Txn
	if n := len(db.txnFree); n > 0 {
		t = db.txnFree[n-1]
		db.txnFree = db.txnFree[:n-1]
	} else {
		t = &Txn{}
	}
	clear(t.pending) // what the txn's last Commit returned expires here
	t.pending = t.pending[:0]
	t.db, t.p, t.id, t.done = db, p, db.nextTxn, false
	return t
}

// release recycles a finished transaction onto the DB free-list. Undo
// entries are zeroed so the free-list does not pin rows; pending keeps the
// records Commit returned until Begin reissues the txn.
func (db *DB) release(t *Txn) {
	for i := range t.undo {
		t.undo[i] = undoEntry{}
	}
	t.undo = t.undo[:0]
	t.locks = t.locks[:0]
	t.lastIxPages = t.lastIxPages[:0]
	t.p = nil
	db.txnFree = append(db.txnFree, t)
}

func (t *Txn) acquire(table *Table, k Key, mode LockMode) error {
	kb := append(t.keyBuf[:0], table.Schema.Name...)
	kb = append(kb, 0)
	kb = append(kb, k...)
	t.keyBuf = kb
	st, fresh, err := t.db.locks.AcquireKey(t.p, t.id, kb, mode)
	if err != nil {
		return err
	}
	if fresh {
		t.locks = append(t.locks, st)
	}
	return nil
}

// pendingCap is the capacity a txn's first logged record gives pending: room
// for a short txn's records and the commit record Commit appends, so that
// neither grows the slice.
const pendingCap = 4

// logOp appends one of this txn's WAL records at write time (the
// write-ahead discipline: the log holds redo and undo for every in-flight
// change before the txn decides its fate) and buffers the assigned record
// for publication at commit. The first record also registers the txn in the
// active-transaction table.
func (t *Txn) logOp(rec storage.Record) {
	db := t.db
	if len(t.pending) == 0 {
		db.active[t.id] = db.log.Head() + 1
		if cap(t.pending) == 0 {
			t.pending = make([]storage.Record, 0, pendingCap)
		}
	}
	rec.LSN = db.log.Append(rec)
	t.pending = append(t.pending, rec)
}

// undoPrior is the before-image rollback must keep: the displaced overlay
// row. A base-only image (in txn scratch, about to be reused) is dropped —
// Table.undoSet restores it by removing the overlay entry, never from prior.
func undoPrior(old Row, wasDelta bool) Row {
	if !wasDelta {
		return nil
	}
	return old
}

// priorFlags encodes the exact overlay shape a write displaced, so recovery
// undo can restore it with Table.undoSet.
func priorFlags(existed, wasDelta bool) uint8 {
	var f uint8
	if existed {
		f |= storage.FlagPriorExisted
	}
	if wasDelta {
		f |= storage.FlagPriorInDelta
	}
	return f
}

// Get reads the row under k with a shared lock, returning the row and the
// page it lives on (for the caller's buffer accounting). A missing row
// returns ErrRowNotFound with the page that was probed.
func (t *Txn) Get(table *Table, k Key) (Row, storage.PageID, error) {
	return t.GetInto(table, k, nil)
}

// GetInto is Get with caller-owned row scratch: a base row is materialized
// into dst's storage, so the result is valid only until the caller reuses
// dst (see Table.GetInto). k is not retained.
//
//detlint:hotpath
func (t *Txn) GetInto(table *Table, k Key, dst Row) (Row, storage.PageID, error) {
	return t.read(table, k, dst, LockShared)
}

// GetForUpdate reads the row under k with an exclusive lock, the
// read-modify-write pattern for contended rows (acquiring S first and
// upgrading would deadlock two concurrent writers of the same row).
func (t *Txn) GetForUpdate(table *Table, k Key) (Row, storage.PageID, error) {
	return t.GetForUpdateInto(table, k, nil)
}

// GetForUpdateInto is GetForUpdate with caller-owned row scratch (see
// GetInto).
//
//detlint:hotpath
func (t *Txn) GetForUpdateInto(table *Table, k Key, dst Row) (Row, storage.PageID, error) {
	return t.read(table, k, dst, LockExclusive)
}

func (t *Txn) read(table *Table, k Key, dst Row, mode LockMode) (Row, storage.PageID, error) {
	if t.done {
		return nil, storage.PageID{}, ErrTxnDone
	}
	if err := t.acquire(table, k, mode); err != nil {
		return nil, storage.PageID{}, err
	}
	row, page, ok := table.GetInto(k, dst)
	if o := t.db.observer; o != nil {
		o.OnRead(t.db.sim.Elapsed(), t.id, table.Schema.Name, k, row)
	}
	if !ok {
		return nil, page, ErrRowNotFound
	}
	return row, page, nil
}

// priorScratch returns the buffer a write's base-only before-image may be
// materialized in: the txn's own, sized so the generator never grows it.
func (t *Txn) priorScratch(table *Table) Row {
	if n := len(table.Schema.Cols); cap(t.priorBuf) < n {
		t.priorBuf = make(Row, 0, n)
	}
	return t.priorBuf
}

// Insert adds a new row (primary key taken from the row per schema).
func (t *Txn) Insert(table *Table, row Row) (storage.PageID, error) {
	if t.done {
		return storage.PageID{}, ErrTxnDone
	}
	k := table.Schema.appendKeyOf(t.pkBuf[:0], row)
	t.pkBuf = k
	if err := t.acquire(table, k, LockExclusive); err != nil {
		return storage.PageID{}, err
	}
	page, wasDelta, err := table.insert(k, row)
	if err != nil {
		return storage.PageID{}, err
	}
	sk := t.db.stable(k)
	t.undo = append(t.undo, undoEntry{table: table, key: sk, page: page, existed: false, inDelta: wasDelta})
	if o := t.db.observer; o != nil {
		o.OnWrite(t.db.sim.Elapsed(), t.id, table.Schema.Name, k, nil, row)
	}
	t.logOp(storage.Record{
		Type:  storage.RecInsert,
		Txn:   t.id,
		Flags: priorFlags(false, wasDelta),
		Table: table.ID,
		Page:  page,
		Key:   sk,
		Image: t.db.stableRow(row),
	})
	t.recordIndexOps(table)
	return page, nil
}

// Update replaces the row under k.
func (t *Txn) Update(table *Table, k Key, row Row) (storage.PageID, error) {
	if t.done {
		return storage.PageID{}, ErrTxnDone
	}
	if err := t.acquire(table, k, LockExclusive); err != nil {
		return storage.PageID{}, err
	}
	page, old, wasDelta, err := table.write(k, row, t.priorScratch(table))
	if err != nil {
		return page, err
	}
	sk := t.db.stable(k)
	t.undo = append(t.undo, undoEntry{table: table, key: sk, prior: undoPrior(old, wasDelta), page: page, existed: true, inDelta: wasDelta})
	if o := t.db.observer; o != nil {
		o.OnWrite(t.db.sim.Elapsed(), t.id, table.Schema.Name, k, old, row)
	}
	t.logOp(storage.Record{
		Type:  storage.RecUpdate,
		Txn:   t.id,
		Flags: priorFlags(true, wasDelta),
		Table: table.ID,
		Page:  page,
		Key:   sk,
		Image: t.db.stableRow(row),
		Prior: t.db.stableRow(old),
	})
	t.recordIndexOps(table)
	return page, nil
}

// Delete removes the row under k.
func (t *Txn) Delete(table *Table, k Key) (storage.PageID, error) {
	if t.done {
		return storage.PageID{}, ErrTxnDone
	}
	if err := t.acquire(table, k, LockExclusive); err != nil {
		return storage.PageID{}, err
	}
	page, old, wasDelta, err := table.write(k, nil, t.priorScratch(table))
	if err != nil {
		return page, err
	}
	sk := t.db.stable(k)
	t.undo = append(t.undo, undoEntry{table: table, key: sk, prior: undoPrior(old, wasDelta), page: page, existed: true, inDelta: wasDelta})
	if o := t.db.observer; o != nil {
		o.OnWrite(t.db.sim.Elapsed(), t.id, table.Schema.Name, k, old, nil)
	}
	t.logOp(storage.Record{
		Type:  storage.RecDelete,
		Txn:   t.id,
		Flags: priorFlags(true, wasDelta),
		Table: table.ID,
		Page:  page,
		Key:   sk,
		Prior: t.db.stableRow(old),
	})
	t.recordIndexOps(table)
	return page, nil
}

// recordIndexOps turns the index-entry changes of the write that just
// completed into pending WAL records, so commits pay log bytes for index
// maintenance, the fence sees index writes, and replica buffer invalidation
// covers index pages. Replicas re-derive entries from the heap records, so
// these carry no row images.
func (t *Txn) recordIndexOps(table *Table) {
	t.lastIxPages = t.lastIxPages[:0]
	for _, op := range table.IndexOps() {
		typ := storage.RecIndexPut
		if op.Del {
			typ = storage.RecIndexDelete
		}
		t.logOp(storage.Record{
			Type:  typ,
			Txn:   t.id,
			Table: op.Index.ID,
			Page:  op.Page,
			Key:   t.db.stable(op.EntryKey),
		})
		t.lastIxPages = append(t.lastIxPages, op.Page)
	}
}

// LastIndexPages returns the index pages touched by the most recent write
// on this transaction (valid until the next write). The slice aliases
// internal storage.
func (t *Txn) LastIndexPages() []storage.PageID { return t.lastIxPages }

// ScanRange runs a range query over table.col at read-committed isolation:
// an atomic lock-free scan collects candidates under the planner's chosen
// access path, then each candidate row is S-locked (waiting as needed) and
// re-read, dropping rows that no longer satisfy the predicate. Phantoms
// are not prevented — there are no predicate locks, matching common
// READ COMMITTED behavior. Scans do not emit observer read events.
func (t *Txn) ScanRange(table *Table, col int, lo, hi Value, limit int) (ScanResult, error) {
	if t.done {
		return ScanResult{}, ErrTxnDone
	}
	cand, err := table.SelectRange(col, lo, hi, limit)
	if err != nil {
		return ScanResult{}, err
	}
	out := ScanResult{Plan: cand.Plan, Pages: cand.Pages}
	loK, hiK := EncodeKey(lo), EncodeKey(hi)
	for _, pk := range cand.PKs {
		if err := t.acquire(table, pk, LockShared); err != nil {
			return ScanResult{}, err
		}
		row, _, ok := table.Get(pk)
		if !ok {
			continue // deleted between scan and lock grant
		}
		vK := EncodeKey(row[col])
		if bytes.Compare(vK, loK) < 0 || bytes.Compare(vK, hiK) > 0 {
			continue // moved out of range before the lock was granted
		}
		out.PKs = append(out.PKs, pk)
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// reserve returns an append-only byte arena with room for need more bytes at
// its tail, starting a new chunk when the current one is full. Slices carved
// from earlier chunks keep those alive; the arena itself only ever names the
// newest. It backs the WAL payload slab and every StrSlab.
func reserve(arena []byte, need, chunk int) []byte {
	if cap(arena)-len(arena) >= need {
		return arena
	}
	return newChunk(need, chunk)
}

// newChunk starts a fresh arena chunk of chunk bytes, or of need bytes when
// one carve outgrows a chunk.
//
//detlint:coldpath
//go:noinline
func newChunk(need, chunk int) []byte {
	return make([]byte, 0, max(chunk, need))
}

// slabChunk sizes the DB slab: chunks amortize the copy-out of record
// payloads to well under one allocation per record.
const slabChunk = 64 << 10

// stable copies b into the DB's slab, returning an immortal copy for WAL
// records to retain.
func (db *DB) stable(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	db.slab = reserve(db.slab, len(b), slabChunk)
	n := len(db.slab)
	db.slab = append(db.slab, b...)
	return db.slab[n:len(db.slab):len(db.slab)]
}

// stableRow encodes r straight into the DB slab, returning the immortal
// image bytes (nil for a nil row, i.e. a delete's after-image).
func (db *DB) stableRow(r Row) []byte {
	if r == nil {
		return nil
	}
	db.slab = reserve(db.slab, EncodedRowSize(r), slabChunk)
	n := len(db.slab)
	db.slab = EncodeRow(db.slab, r)
	return db.slab[n:len(db.slab):len(db.slab)]
}

// Commit appends the commit record, moves the fsync barrier over everything
// logged so far (group commit: one txn's durability fsync drags every
// earlier append, other txns' in-flight records included), releases all
// locks, and returns the txn's records for publication to replication
// streams, each carrying its LSN. Read-only transactions publish nothing.
//
// The returned records are the records as the log holds them, Prior and
// Flags included: a replica replays only after-images, so a reader that
// ships them ignores both (the cluster's commit hook hands the streams each
// record's slot in this DB's log, found by LSN). The slice is the txn's
// own buffer and stays valid until the DB's next Begin, which reissues this
// txn; the record Key/Image bytes themselves are slab-backed and immortal.
//
//detlint:hotpath
func (t *Txn) Commit() ([]storage.Record, error) {
	if t.done {
		return nil, ErrTxnDone
	}
	t.done = true
	db := t.db
	if len(t.pending) > 0 {
		commit := storage.Record{Type: storage.RecCommit, Txn: t.id}
		commit.LSN = db.log.Append(commit)
		db.log.Sync()
		t.pending = append(t.pending, commit)
		delete(db.active, t.id)
	}
	db.locks.releaseAll(t.id, t.locks)
	db.commits++
	if o := db.observer; o != nil {
		o.OnCommit(db.sim.Elapsed(), t.id)
	}
	db.release(t)
	return t.pending, nil
}

// Abort rolls back every change in reverse order, appends an abort record
// so crash recovery knows this txn's logged writes were already rolled back
// (skipping them in redo instead of replaying compensation), and releases
// all locks. The abort record rides to durability on the next group-commit
// fsync — safe, because under strict 2PL any later committed write to the
// same key orders after this marker in the log, so a durable commit implies
// the durable marker.
//
//detlint:hotpath
func (t *Txn) Abort() error {
	if t.done {
		return ErrTxnDone
	}
	t.done = true
	for i := len(t.undo) - 1; i >= 0; i-- {
		u := t.undo[i]
		u.table.undoSet(u.key, u.prior, u.page, u.existed, u.inDelta)
	}
	db := t.db
	if len(t.pending) > 0 {
		db.log.Append(storage.Record{Type: storage.RecAbort, Txn: t.id})
		delete(db.active, t.id)
	}
	db.locks.releaseAll(t.id, t.locks)
	db.aborts++
	if o := db.observer; o != nil {
		o.OnAbort(db.sim.Elapsed(), t.id)
	}
	db.release(t)
	return nil
}

// WALBytes returns the encoded size of the records this txn's commit fsync
// makes durable (its own operation records, undo images included, plus the
// commit record), used by nodes to pre-charge group-commit latency.
func (t *Txn) WALBytes() int {
	total := 0
	for i := range t.pending {
		total += t.pending[i].Size()
	}
	if len(t.pending) > 0 {
		total += (&storage.Record{Type: storage.RecCommit}).Size()
	}
	return total
}

// ActiveTxnTable returns the active-transaction table — txns with logged
// records awaiting commit or abort — in ascending txn-id order.
func (db *DB) ActiveTxnTable() []storage.CheckpointTxn {
	if len(db.active) == 0 {
		return nil
	}
	out := make([]storage.CheckpointTxn, 0, len(db.active))
	for id, first := range db.active {
		out = append(out, storage.CheckpointTxn{ID: id, FirstLSN: first})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// FuzzyCheckpoint appends a checkpoint record capturing the current
// active-transaction table and the caller's dirty-page table, returning its
// LSN. The checkpoint is fuzzy — it does not quiesce writers or flush pages
// itself; the caller (the node's checkpointer) pays the flush I/O and makes
// the record durable with a log sync.
func (db *DB) FuzzyCheckpoint(dirty []storage.PageID) storage.LSN {
	att := db.ActiveTxnTable()
	start := db.log.Head() + 1 // the LSN the checkpoint record will get
	for _, t := range att {
		if t.FirstLSN < start {
			start = t.FirstLSN
		}
	}
	return db.log.Append(storage.Record{
		Type: storage.RecCheckpoint,
		Image: storage.EncodeCheckpointData(storage.CheckpointData{
			StartLSN:   start,
			ActiveTxns: att,
			DirtyPages: dirty,
		}),
	})
}

// BumpTxnFloor raises the txn-id counter to at least floor, so ids issued
// after a promotion or recovery never collide with ids the crashed or
// demoted instance already used.
func (db *DB) BumpTxnFloor(floor uint64) {
	if db.nextTxn < floor {
		db.nextTxn = floor
	}
}

// TxnCounter returns the highest txn id issued so far. Node recovery
// carries it across a crash: the lost volatile tail may hold ids beyond
// anything in the durable log, and reusing one would conflate two distinct
// transactions in recorded histories.
func (db *DB) TxnCounter() uint64 { return db.nextTxn }
