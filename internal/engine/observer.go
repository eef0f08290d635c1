package engine

import "time"

// Observer receives the database's transaction history as it happens:
// every read and write (with before/after images) plus commit and abort
// outcomes, each stamped with the virtual time of the event. The invariant
// checker (internal/check) implements it to record histories; the engine
// defines the interface so it does not depend on the checker.
//
// Callbacks run inline on the transaction's process under the simulation's
// single-runnable discipline, so their relative order is deterministic and
// implementations need no locking. A nil-row before-image means the key did
// not exist; a nil after-image means the write was a delete.
//
// Keys and rows shown to an observer are valid only for the call: they may
// be the caller's key scratch, the caller's row scratch a base row was
// materialized in, or the transaction's before-image buffer, all reused
// after the call returns. An observer that keeps a key or a row copies it.
//
// The same pattern extends to resource waits: LockTable.OnWait reports
// lock-wait intervals to whoever attached it (the node layer adapts it to
// the observability tracer), keeping the engine free of any dependency on
// the obs package.
type Observer interface {
	OnRead(at time.Duration, txn uint64, table string, key Key, row Row)
	OnWrite(at time.Duration, txn uint64, table string, key Key, before, after Row)
	OnCommit(at time.Duration, txn uint64)
	OnAbort(at time.Duration, txn uint64)
}

// SetObserver attaches (or, with nil, detaches) a history observer.
func (db *DB) SetObserver(o Observer) { db.observer = o }

// Observer returns the attached history observer (nil if detached), so node
// recovery can carry it onto the rebuilt DB instance.
func (db *DB) Observer() Observer { return db.observer }
