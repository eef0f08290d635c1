// Package check turns the testbed from a load generator into a correctness
// harness: a history recorder taps the engine's transaction path (via
// engine.Observer) and a set of invariant checkers pass judgement on the
// recorded history and on the final replicated state.
//
// The checkers exploit two properties of the simulation. First, the DES
// kernel is deterministic, so a violation found under an injected fault
// schedule replays exactly from the same seed. Second, callbacks arrive in
// a single deterministic order, so the recorder can assign a global
// sequence number and the checkers can replay the history without worrying
// about timestamp ties.
package check

import (
	"math"
	"slices"
	"time"

	"cloudybench/internal/engine"
)

// EventKind classifies one history event.
type EventKind int

// Event kinds.
const (
	EvRead EventKind = iota
	EvWrite
	EvCommit
	EvAbort
)

func (k EventKind) String() string {
	switch k {
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvCommit:
		return "commit"
	default:
		return "abort"
	}
}

// Event is one recorded history event. For reads, After holds the value
// observed (nil = row absent). For writes, Before/After hold the images
// (nil Before = insert, nil After = delete). Commit/abort events carry only
// the transaction id.
type Event struct {
	Seq    int64
	At     time.Duration
	Txn    uint64
	Kind   EventKind
	Table  string
	Key    engine.Key
	Before engine.Row
	After  engine.Row
}

// History layout. A Recorder never copies what it already holds: events are
// fixed-size records in chunks of eventChunkLen, and the bytes of keys and
// the values of row images are appended to two per-recorder slabs that also
// grow a chunk at a time. Recording a read or a write therefore allocates
// only when its chunk or a slab chunk fills.
const (
	eventChunkLen = 1024     // events per chunk (64 KiB, no pointers)
	keyChunkLen   = 16 << 10 // key bytes per slab chunk
	valChunkLen   = 2048     // row values per slab chunk
)

// span locates one key or row image in a slab: chunk, offset, length.
type span struct{ chunk, off, n uint32 }

// nilSpan marks an absent image: no row before an insert, none after a
// delete, none seen by a read of a missing key. A zero-length span is an
// empty key (recorded as nil) or an empty, present row.
var nilSpan = span{n: math.MaxUint32}

// noTable is the table id of commit and abort events.
const noTable = math.MaxUint32

// event is one recorded history event: ids and spans only, so a chunk of
// them holds no pointers for the collector to scan.
type event struct {
	at            time.Duration
	txn           uint64
	key           span
	before, after span
	table         uint32 // index into Recorder.tables
	kind          EventKind
}

// slab is an append-only store that grows a chunk at a time. Only the last
// chunk is ever appended to, and only past the length its owner has seen,
// so a span stays valid for the life of the slab and a prefix view can
// share every chunk (see view).
type slab[T any] struct{ chunks [][]T }

// put copies items to the slab's tail and returns where they landed.
func (s *slab[T]) put(items []T, chunkLen int) span {
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < len(items) {
		s.grow(max(chunkLen, len(items)))
		last++
	}
	c := s.chunks[last]
	s.chunks[last] = append(c, items...)
	return span{chunk: uint32(last), off: uint32(len(c)), n: uint32(len(items))}
}

// grow opens a fresh chunk: the slab's one allocation per chunk.
//
//detlint:coldpath
//go:noinline
func (s *slab[T]) grow(n int) {
	s.chunks = append(s.chunks, make([]T, 0, n))
}

// get returns the items a span names, aliasing the slab.
func (s *slab[T]) get(x span) []T {
	return s.chunks[x.chunk][x.off : x.off+x.n : x.off+x.n]
}

// view returns a slab that shares every chunk but will append to none of
// them: the last chunk is clipped, so its first put opens a chunk of its own.
func (s *slab[T]) view() slab[T] {
	out := slab[T]{chunks: slices.Clone(s.chunks)}
	if n := len(out.chunks); n > 0 {
		out.chunks[n-1] = slices.Clip(out.chunks[n-1])
	}
	return out
}

// Recorder implements engine.Observer, accumulating the full history of the
// databases it is attached to. It runs inside the simulation's
// single-runnable discipline and needs no locking. Judging it builds and
// reuses state inside it, so one goroutine at a time judges a recorder.
type Recorder struct {
	events  [][]event // chunks of up to eventChunkLen; only the last is appended to
	n       int       // events held
	keys    slab[byte]
	vals    slab[engine.Value]
	tables  []string // interned table names; an event holds the index
	commits int64
	aborts  int64
	ix      *index // the checkers' shared index, built on first judgement
}

// NewRecorder returns an empty recorder; attach it with db.SetObserver.
func NewRecorder() *Recorder { return &Recorder{} }

var _ engine.Observer = (*Recorder)(nil)

// add appends ev to the history.
func (r *Recorder) add(ev event) {
	last := len(r.events) - 1
	if last < 0 || len(r.events[last]) == cap(r.events[last]) {
		r.addChunk()
		last++
	}
	r.events[last] = append(r.events[last], ev)
	r.n++
}

// addChunk opens a fresh event chunk.
//
//detlint:coldpath
//go:noinline
func (r *Recorder) addChunk() {
	r.events = append(r.events, make([]event, 0, eventChunkLen))
}

// table interns a table name.
func (r *Recorder) table(name string) uint32 {
	if id := r.tableID(name); id >= 0 {
		return uint32(id)
	}
	return r.addTable(name)
}

// tableID returns the interned id of a table name, or -1 if the history
// never named it. A history names a handful of tables, so a scan beats
// hashing.
func (r *Recorder) tableID(name string) int {
	for i, t := range r.tables {
		if t == name {
			return i
		}
	}
	return -1
}

//detlint:coldpath
//go:noinline
func (r *Recorder) addTable(name string) uint32 {
	r.tables = append(r.tables, name)
	return uint32(len(r.tables) - 1)
}

// putKey copies a key into the key slab. The engine shows observers the
// caller's scratch, so the copy is what makes the key outlive the call.
func (r *Recorder) putKey(k engine.Key) span {
	if len(k) == 0 {
		return span{}
	}
	return r.keys.put(k, keyChunkLen)
}

// putRow copies a row image into the value slab, keeping nil distinct from
// empty (nil is the absent-row signal).
func (r *Recorder) putRow(row engine.Row) span {
	if row == nil {
		return nilSpan
	}
	if len(row) == 0 {
		return span{}
	}
	return r.vals.put(row, valChunkLen)
}

// key returns the recorded key bytes a span names (nil for an empty key).
func (r *Recorder) key(x span) engine.Key {
	if x.n == 0 {
		return nil
	}
	return r.keys.get(x)
}

// emptyRow is the image of a recorded zero-column row.
var emptyRow = engine.Row{}

// row returns the recorded image a span names (nil for an absent row),
// aliasing the slab.
func (r *Recorder) row(x span) engine.Row {
	switch x.n {
	case nilSpan.n:
		return nil
	case 0:
		return emptyRow
	}
	return r.vals.get(x)
}

// OnRead implements engine.Observer.
//
//detlint:hotpath
func (r *Recorder) OnRead(at time.Duration, txn uint64, table string, key engine.Key, row engine.Row) {
	r.add(event{at: at, txn: txn, kind: EvRead, table: r.table(table), key: r.putKey(key), before: nilSpan, after: r.putRow(row)})
}

// OnWrite implements engine.Observer.
//
//detlint:hotpath
func (r *Recorder) OnWrite(at time.Duration, txn uint64, table string, key engine.Key, before, after engine.Row) {
	r.add(event{at: at, txn: txn, kind: EvWrite, table: r.table(table), key: r.putKey(key), before: r.putRow(before), after: r.putRow(after)})
}

// OnCommit implements engine.Observer.
//
//detlint:hotpath
func (r *Recorder) OnCommit(at time.Duration, txn uint64) {
	r.commits++
	r.add(event{at: at, txn: txn, kind: EvCommit, table: noTable, before: nilSpan, after: nilSpan})
}

// OnAbort implements engine.Observer.
//
//detlint:hotpath
func (r *Recorder) OnAbort(at time.Duration, txn uint64) {
	r.aborts++
	r.add(event{at: at, txn: txn, kind: EvAbort, table: noTable, before: nilSpan, after: nilSpan})
}

// each calls fn on every event in order with its sequence number.
func (r *Recorder) each(fn func(seq int, ev *event)) {
	seq := 0
	for _, c := range r.events {
		for i := range c {
			fn(seq, &c[i])
			seq++
		}
	}
}

// Events returns the recorded history in order, built on demand. Keys and
// row images alias the recorder's storage: read them, do not modify them.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, r.n)
	r.each(func(seq int, ev *event) {
		e := Event{Seq: int64(seq), At: ev.at, Txn: ev.txn, Kind: ev.kind, Key: r.key(ev.key), Before: r.row(ev.before), After: r.row(ev.after)}
		if ev.table != noTable {
			e.Table = r.tables[ev.table]
		}
		out = append(out, e)
	})
	return out
}

// Counts returns recorded commit and abort totals.
func (r *Recorder) Counts() (commits, aborts int64) { return r.commits, r.aborts }

// Before returns a view of the history strictly before the given instant,
// with commit/abort totals recomputed over that prefix. The view shares the
// recorder's chunks and copies nothing but their lists; either side may go
// on recording without the other seeing it. After a partition fail-over the
// old primary's post-rejoin replay mutates its DB without observer
// callbacks, so state-bound invariants (conservation, read-committed) are
// judged on the pre-fail-over prefix of its history.
func (r *Recorder) Before(at time.Duration) *Recorder {
	out := &Recorder{keys: r.keys.view(), vals: r.vals.view(), tables: slices.Clip(r.tables)}
	for ci, c := range r.events {
		cut := len(c)
		for i := range c {
			if c[i].at >= at {
				cut = i
				break
			}
			switch c[i].kind {
			case EvCommit:
				out.commits++
			case EvAbort:
				out.aborts++
			}
		}
		out.n += cut
		if cut < len(c) || ci == len(r.events)-1 {
			out.events = slices.Clone(r.events[:ci+1])
			out.events[ci] = slices.Clip(c[:cut])
			break
		}
	}
	return out
}
