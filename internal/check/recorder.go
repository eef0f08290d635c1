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

// Recorder implements engine.Observer, accumulating the full history of the
// database it is attached to. It runs inside the simulation's
// single-runnable discipline and needs no locking.
type Recorder struct {
	events  []Event
	commits int64
	aborts  int64
}

// NewRecorder returns an empty recorder; attach it with db.SetObserver.
func NewRecorder() *Recorder { return &Recorder{} }

var _ engine.Observer = (*Recorder)(nil)

// add appends ev to the history. The key is copied, as rows are (cloneRow):
// callers encode lookup keys into scratch buffers they reuse, and the engine
// hands observers the caller's bytes.
func (r *Recorder) add(ev Event) {
	ev.Seq = int64(len(r.events))
	if ev.Key != nil {
		ev.Key = append(engine.Key(nil), ev.Key...)
	}
	r.events = append(r.events, ev)
}

// cloneRow copies a row preserving nilness (Row.Clone turns nil into an
// empty row, which would erase the absent-row signal).
func cloneRow(r engine.Row) engine.Row {
	if r == nil {
		return nil
	}
	return r.Clone()
}

// OnRead implements engine.Observer.
func (r *Recorder) OnRead(at time.Duration, txn uint64, table string, key engine.Key, row engine.Row) {
	r.add(Event{At: at, Txn: txn, Kind: EvRead, Table: table, Key: key, After: cloneRow(row)})
}

// OnWrite implements engine.Observer.
func (r *Recorder) OnWrite(at time.Duration, txn uint64, table string, key engine.Key, before, after engine.Row) {
	r.add(Event{At: at, Txn: txn, Kind: EvWrite, Table: table, Key: key, Before: cloneRow(before), After: cloneRow(after)})
}

// OnCommit implements engine.Observer.
func (r *Recorder) OnCommit(at time.Duration, txn uint64) {
	r.commits++
	r.add(Event{At: at, Txn: txn, Kind: EvCommit})
}

// OnAbort implements engine.Observer.
func (r *Recorder) OnAbort(at time.Duration, txn uint64) {
	r.aborts++
	r.add(Event{At: at, Txn: txn, Kind: EvAbort})
}

// Events returns the recorded history in order.
func (r *Recorder) Events() []Event { return r.events }

// Counts returns recorded commit and abort totals.
func (r *Recorder) Counts() (commits, aborts int64) { return r.commits, r.aborts }

// committedTxns returns the set of transaction ids that committed.
func (r *Recorder) committedTxns() map[uint64]bool {
	out := make(map[uint64]bool)
	for i := range r.events {
		if r.events[i].Kind == EvCommit {
			out[r.events[i].Txn] = true
		}
	}
	return out
}

// encRow canonicalizes a row for equality comparison. The sentinel for an
// absent row cannot collide with EncodeRow output, which always begins with
// a column count.
func encRow(r engine.Row) string {
	if r == nil {
		return "<absent>"
	}
	return string(engine.EncodeRow(nil, r))
}
