package engine

import (
	"bytes"
	"errors"
	"time"

	"cloudybench/internal/sim"
)

// LockMode is a row-lock mode under two-phase locking.
type LockMode uint8

// Lock modes.
const (
	LockShared LockMode = iota + 1
	LockExclusive
)

func (m LockMode) String() string {
	if m == LockShared {
		return "S"
	}
	return "X"
}

// ErrLockTimeout is returned when a lock wait exceeds the lock table's
// timeout — the engine's deadlock safety net, mirroring real databases'
// lock_timeout behaviour. Transactions receiving it must abort.
var ErrLockTimeout = errors.New("engine: lock wait timeout")

// DefaultLockTimeout bounds lock waits. CloudyBench's transactions acquire
// locks in a globally consistent order, so genuine deadlocks do not occur;
// the timeout guards against workload-programming mistakes.
const DefaultLockTimeout = 5 * time.Second

type lockRequest struct {
	txn     uint64
	mode    LockMode
	granted bool
	timeout bool
	cond    *sim.Cond
}

type lockHolder struct {
	txn  uint64
	mode LockMode
}

// lockState is one locked key. A state lives in the table only while it has
// a holder or a waiter; Release recycles a drained state onto the table's
// free-list with its key buffer, holder slice and queue array intact, so
// steady-state locking allocates nothing and the table's memory follows the
// keys locked now, not every key ever locked.
type lockState struct {
	key  []byte     // composite key bytes, copied from the acquirer's scratch
	hash uint64     // hashKey(key)
	next *lockState // next live state in the same bucket
	// holders is inline: a row lock has one X holder or a few S holders, so
	// a linear scan beats a map and the slice survives recycling.
	holders []lockHolder
	// queue holds the waiters, oldest first. Removal shifts the few
	// entries down, so the array never walks off its end and re-allocates.
	queue []*lockRequest
}

// enqueue adds a waiter at the back, or — for an upgrade — at the front.
func (st *lockState) enqueue(req *lockRequest, front bool) {
	st.queue = append(st.queue, req)
	if front {
		copy(st.queue[1:], st.queue)
		st.queue[0] = req
	}
}

// unqueue removes the waiter at index i.
func (st *lockState) unqueue(i int) {
	last := len(st.queue) - 1
	copy(st.queue[i:], st.queue[i+1:])
	st.queue[last] = nil
	st.queue = st.queue[:last]
}

// holder returns the index of txn in holders, or -1.
func (st *lockState) holder(txn uint64) int {
	for i := range st.holders {
		if st.holders[i].txn == txn {
			return i
		}
	}
	return -1
}

// grant records txn as holding the state in mode (an upgrade overwrites the
// mode it held).
func (st *lockState) grant(txn uint64, mode LockMode) {
	if i := st.holder(txn); i >= 0 {
		st.holders[i].mode = mode
		return
	}
	st.holders = append(st.holders, lockHolder{txn: txn, mode: mode})
}

// compatible reports whether txn may be granted mode on st right now.
func (st *lockState) compatible(txn uint64, mode LockMode) bool {
	for _, h := range st.holders {
		if h.txn == txn {
			continue
		}
		if mode == LockExclusive || h.mode == LockExclusive {
			return false
		}
	}
	return true
}

// LockTable is a simulation-aware row lock manager with shared/exclusive
// modes, FIFO waiting, lock upgrade, and timeout-based deadlock recovery.
type LockTable struct {
	s *sim.Sim
	// buckets is a chained hash table of the live states, indexed by the
	// low bits of a fixed hash of the composite key bytes; it doubles when
	// live outgrows it and never shrinks. Together with free, the LIFO of
	// drained states awaiting reuse, it makes the table's memory — and its
	// allocations — a function of the most keys ever locked at once.
	buckets []*lockState
	live    int
	free    []*lockState
	timeout time.Duration

	waits    int64 // lock acquisitions that had to wait
	timeouts int64

	// OnWait, if set, observes every lock acquisition that actually
	// blocked: it runs on the waiter's process after the wait resolves
	// (granted or timed out) with the wait's virtual-time interval. Like
	// the DB Observer it is a pure callback — implementations must not
	// sleep or block, so attaching one cannot perturb the lock schedule.
	OnWait func(p *sim.Proc, txn uint64, key string, start, end time.Duration)
}

// NewLockTable returns a lock table bound to the simulation with the
// default timeout.
func NewLockTable(s *sim.Sim) *LockTable {
	return &LockTable{s: s, timeout: DefaultLockTimeout}
}

// hashKey is FNV-1a over the key bytes.
func hashKey(k []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range k {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// lookup returns the live state for key, or nil.
func (lt *LockTable) lookup(h uint64, key []byte) *lockState {
	if len(lt.buckets) == 0 {
		return nil
	}
	for st := lt.buckets[h&uint64(len(lt.buckets)-1)]; st != nil; st = st.next {
		if st.hash == h && bytes.Equal(st.key, key) {
			return st
		}
	}
	return nil
}

// link puts st at the head of its bucket.
func (lt *LockTable) link(st *lockState) {
	b := &lt.buckets[st.hash&uint64(len(lt.buckets)-1)]
	st.next = *b
	*b = st
}

// state returns the live state for key, installing a recycled (or, failing
// that, new) one when the key is not currently locked.
func (lt *LockTable) state(key []byte) *lockState {
	h := hashKey(key)
	if st := lt.lookup(h, key); st != nil {
		return st
	}
	if lt.live == len(lt.buckets) {
		lt.growBuckets() //detlint:allow hotalloc(doubles when more keys are locked at once than ever before)
	}
	var st *lockState
	if n := len(lt.free); n > 0 {
		st = lt.free[n-1]
		lt.free = lt.free[:n-1]
	} else {
		st = &lockState{} //detlint:allow hotalloc(free-list miss: more keys locked at once than ever before)
	}
	st.key = append(st.key[:0], key...)
	st.hash = h
	lt.link(st)
	lt.live++
	return st
}

// growBuckets doubles the bucket array and rehashes the live states.
func (lt *LockTable) growBuckets() {
	old := lt.buckets
	lt.buckets = make([]*lockState, max(64, 2*len(old)))
	for _, st := range old {
		for st != nil {
			next := st.next
			lt.link(st)
			st = next
		}
	}
}

// recycle unlinks a drained state and parks it on the free-list.
func (lt *LockTable) recycle(st *lockState) {
	b := &lt.buckets[st.hash&uint64(len(lt.buckets)-1)]
	for *b != st {
		b = &(*b).next
	}
	*b = st.next
	st.next = nil
	lt.live--
	lt.free = append(lt.free, st)
}

// Acquire obtains a lock on key for txn in the given mode, blocking in
// virtual time behind conflicting holders. Re-acquiring an already-held
// lock is a no-op; holding S and requesting X upgrades (jumping the queue,
// as upgrades must to avoid guaranteed deadlock between two upgraders —
// which the timeout still resolves).
func (lt *LockTable) Acquire(p *sim.Proc, txn uint64, key string, mode LockMode) error {
	_, _, err := lt.AcquireKey(p, txn, []byte(key), mode)
	return err
}

// AcquireKey is Acquire with raw key bytes, which it copies: the
// transaction hot loop builds composite keys into a reusable scratch buffer
// and acquires through here. It returns the key's lock state — the handle
// release takes — and whether this call made txn a holder (false when it
// already held the key, at any strength), so a transaction records each
// state it must release exactly once.
//
//detlint:hotpath
func (lt *LockTable) AcquireKey(p *sim.Proc, txn uint64, key []byte, mode LockMode) (st *lockState, fresh bool, err error) {
	st = lt.state(key)
	hi := st.holder(txn)
	if hi >= 0 && (st.holders[hi].mode == LockExclusive || st.holders[hi].mode == mode) {
		return st, false, nil // already held at sufficient strength
	}
	upgrade := hi >= 0
	// Grant immediately when compatible and not queue-jumping non-upgrades.
	if st.compatible(txn, mode) && (upgrade || len(st.queue) == 0) {
		st.grant(txn, mode)
		return st, !upgrade, nil
	}
	if err := lt.wait(p, txn, st, mode, upgrade); err != nil {
		return st, false, err
	}
	return st, !upgrade, nil
}

// wait queues txn behind st's conflicting holders until it is granted the
// lock or times out. The state cannot drain (and be recycled) under a queued
// request, so the timeout watcher may hold st. A blocked acquisition costs a
// request, a cond and a watcher process; only the uncontended path is held
// to zero allocations.
//
//detlint:coldpath
func (lt *LockTable) wait(p *sim.Proc, txn uint64, st *lockState, mode LockMode, upgrade bool) error {
	req := &lockRequest{txn: txn, mode: mode, cond: sim.NewCond(lt.s)}
	st.enqueue(req, upgrade)
	lt.waits++
	var waitStart time.Duration
	if lt.OnWait != nil {
		waitStart = lt.s.Elapsed()
	}
	// Timeout watcher: marks the request dead if it waits too long.
	lt.s.Go("lock-timeout", func(w *sim.Proc) {
		w.Sleep(lt.timeout)
		if req.granted || req.timeout {
			return
		}
		req.timeout = true
		for i, q := range st.queue {
			if q == req {
				st.unqueue(i)
				break
			}
		}
		lt.timeouts++
		req.cond.Signal()
	})
	for !req.granted && !req.timeout {
		req.cond.Wait(p)
	}
	if lt.OnWait != nil {
		lt.OnWait(p, txn, string(st.key), waitStart, lt.s.Elapsed())
	}
	if req.timeout {
		return ErrLockTimeout
	}
	return nil
}

// grantWaiters admits queued requests in FIFO order while compatible.
func (lt *LockTable) grantWaiters(st *lockState) {
	for len(st.queue) > 0 {
		req := st.queue[0]
		if !st.compatible(req.txn, req.mode) {
			return
		}
		st.unqueue(0)
		st.grant(req.txn, req.mode)
		req.granted = true
		req.cond.Signal()
	}
}

// Release drops txn's lock on key, waking eligible waiters.
//
//detlint:hotpath
func (lt *LockTable) Release(txn uint64, key string) {
	kb := []byte(key)
	if st := lt.lookup(hashKey(kb), kb); st != nil {
		lt.release(txn, st)
	}
}

// release drops txn's hold on st, wakes eligible waiters, and recycles the
// state once nothing holds or awaits it.
func (lt *LockTable) release(txn uint64, st *lockState) {
	i := st.holder(txn)
	if i < 0 {
		return
	}
	last := len(st.holders) - 1
	st.holders[i] = st.holders[last]
	st.holders = st.holders[:last]
	lt.grantWaiters(st)
	if len(st.holders) == 0 && len(st.queue) == 0 {
		lt.recycle(st)
	}
}

// releaseAll drops every lock txn recorded (commit/abort), in acquisition
// order.
func (lt *LockTable) releaseAll(txn uint64, states []*lockState) {
	for _, st := range states {
		lt.release(txn, st)
	}
}

// Stats returns the number of waits and timeouts observed.
func (lt *LockTable) Stats() (waits, timeouts int64) { return lt.waits, lt.timeouts }

// HeldLocks returns the number of keys with at least one holder or waiter
// (for tests asserting clean release).
func (lt *LockTable) HeldLocks() int { return lt.live }
