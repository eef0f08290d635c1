package check

import (
	"bytes"
	"math"
	"slices"

	"cloudybench/internal/engine"
)

// index is what the history checkers share. A recorder builds it once, on
// the first judgement (and again only if the history has grown since): every
// touched (table, key) pair gets a dense id over the key slab, every
// transaction id a dense id with its commit flag and its writes linked in
// event order, and the crash-durability expectations are folded in the same
// pass. The checkers then keep their state in slices indexed by those ids
// and compare row images in place, where they lie in the recorder's slab.
type index struct {
	n      int     // events indexed
	ev     []evIDs // per event
	txnOf  map[uint64]int32
	txns   []txnInfo
	keyOf  map[uint64]int32 // key hash → newest key id with that hash
	keys   []keyInfo
	writes []write  // every write, in event order
	wkeys  []int32  // written keys, in first-write order
	zombie []zombie // non-committed writes, linked per key
	net    []int64  // committed inserts minus deletes, per table id

	// Scratch the checkers reuse from one call to the next.
	sums    []txnSums
	touched []int32
	state   []keyState
	cursor  []int32
	pending map[uint64]span
	row     engine.Row
}

// evIDs names one event's transaction and key (key -1 on commit/abort).
type evIDs struct{ txn, key int32 }

type txnInfo struct {
	id          uint64
	committed   bool  // a commit event for this id exists anywhere in the history
	first, last int32 // the id's writes (indexes into index.writes), -1 if none
}

type keyInfo struct {
	table    uint32
	key      span  // the bytes, as first recorded
	next     int32 // older key id with the same hash, -1 at the end
	written  bool
	expected span  // the value the committed history says the key ends at
	zFirst   int32 // the key's non-committed writes, in event order
	zLast    int32
}

type write struct {
	seq           int32
	txn, key      int32
	next          int32 // the txn's next write, -1 at the end
	before, after span
}

type zombie struct {
	txn  uint64
	img  span
	next int32
}

// index returns the recorder's judge index, building it if the history has
// changed since the last build.
func (r *Recorder) index() *index {
	if r.ix == nil {
		r.ix = &index{n: -1, txnOf: make(map[uint64]int32), keyOf: make(map[uint64]int32), pending: make(map[uint64]span)}
	}
	if r.ix.n != r.n {
		r.ix.build(r)
	}
	return r.ix
}

func (ix *index) build(r *Recorder) {
	ix.n = r.n
	ix.ev = slices.Grow(ix.ev[:0], r.n)
	clear(ix.txnOf)
	clear(ix.keyOf)
	ix.txns, ix.keys, ix.writes, ix.wkeys, ix.zombie = ix.txns[:0], ix.keys[:0], ix.writes[:0], ix.wkeys[:0], ix.zombie[:0]
	r.each(func(seq int, ev *event) {
		t := ix.txn(ev.txn)
		k := int32(-1)
		switch ev.kind {
		case EvRead:
			k = ix.key(r, ev.table, ev.key)
		case EvWrite:
			k = ix.key(r, ev.table, ev.key)
			w := int32(len(ix.writes))
			ix.writes = append(ix.writes, write{seq: int32(seq), txn: t, key: k, next: -1, before: ev.before, after: ev.after})
			if tx := &ix.txns[t]; tx.first < 0 {
				tx.first = w
			} else {
				ix.writes[tx.last].next = w
			}
			ix.txns[t].last = w
		case EvCommit:
			ix.txns[t].committed = true
		}
		ix.ev = append(ix.ev, evIDs{txn: t, key: k})
	})

	// Commit flags are final only now: fold what the committed history
	// says every written key must end at, and who else wrote it.
	ix.net = make([]int64, len(r.tables))
	for i := range ix.writes {
		w := &ix.writes[i]
		ki := &ix.keys[w.key]
		if !ki.written {
			// Until a committed write lands, the key must end at the value
			// it held when first touched: the before-image of the first
			// write is that baseline (write order per key is lock order).
			ki.written = true
			ki.expected = w.before
			ix.wkeys = append(ix.wkeys, w.key)
		}
		if tx := &ix.txns[w.txn]; tx.committed {
			ki.expected = w.after
			switch {
			case w.before == nilSpan && w.after != nilSpan:
				ix.net[ki.table]++
			case w.before != nilSpan && w.after == nilSpan:
				ix.net[ki.table]--
			}
		} else {
			z := int32(len(ix.zombie))
			ix.zombie = append(ix.zombie, zombie{txn: tx.id, img: w.after, next: -1})
			if ki.zFirst < 0 {
				ki.zFirst = z
			} else {
				ix.zombie[ki.zLast].next = z
			}
			ki.zLast = z
		}
	}
}

// txn returns the dense id of a transaction id, assigning the next one on
// first sight.
func (ix *index) txn(id uint64) int32 {
	if t, ok := ix.txnOf[id]; ok {
		return t
	}
	t := int32(len(ix.txns))
	ix.txns = append(ix.txns, txnInfo{id: id, first: -1, last: -1})
	ix.txnOf[id] = t
	return t
}

// key returns the dense id of a (table, key) pair, assigning the next one
// on first sight. Ids chain through keyInfo.next on a hash collision.
func (ix *index) key(r *Recorder, table uint32, x span) int32 {
	b := r.key(x)
	h := hashKey(table, b)
	head, ok := ix.keyOf[h]
	if !ok {
		head = -1
	}
	for id := head; id >= 0; id = ix.keys[id].next {
		if ki := &ix.keys[id]; ki.table == table && bytes.Equal(r.key(ki.key), b) {
			return id
		}
	}
	id := int32(len(ix.keys))
	ix.keys = append(ix.keys, keyInfo{table: table, key: x, next: head, zFirst: -1, zLast: -1})
	ix.keyOf[h] = id
	return id
}

// hashKey is FNV-1a over the table id and the key bytes.
func hashKey(table uint32, b []byte) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < 4; i++ {
		h = (h ^ uint64(byte(table>>(8*i)))) * prime
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// final reads key id k's committed value from db into the index's row
// scratch: the result is valid until the next call.
func (ix *index) final(r *Recorder, db *engine.DB, k int32) engine.Row {
	ki := &ix.keys[k]
	name := r.tables[ki.table]
	if t := db.Table(name); t != nil && cap(ix.row) < len(t.Schema.Cols) {
		ix.row = make(engine.Row, 0, len(t.Schema.Cols))
	}
	row, _, ok := db.ReadInto(name, r.key(ki.key), ix.row)
	if !ok {
		return nil
	}
	return row
}

// sameImage reports whether two row images are equal under the row
// encoding's semantics, which is what the checkers compare: nil (absent)
// equals only nil, and values compare by kind and payload, floats by their
// bits — NaN equals the same NaN, and −0 differs from +0.
func sameImage(a, b engine.Row) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func sameValue(a, b engine.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case engine.KindInt:
		return a.Int() == b.Int()
	case engine.KindFloat:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case engine.KindString:
		return a.Str() == b.Str()
	}
	return true // NULL carries nothing beyond its kind
}
