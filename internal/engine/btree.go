package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// btreeDegree is the minimum degree t: nodes hold between t-1 and 2t-1 keys
// (except the root). 32 gives wide, shallow trees suited to in-memory use.
const btreeDegree = 32

const (
	btreeMaxKeys = 2*btreeDegree - 1
	btreeMinKeys = btreeDegree - 1
)

// BTree is an in-memory B-tree mapping memcomparable keys to values. It is
// the delta store under every table and every secondary index: written rows,
// tombstones, replica overlays and index entries all live in B-trees. It
// follows the single-runnable discipline of the simulation and therefore
// needs no internal locking.
//
// The tree is flat (DESIGN.md §15). Nodes are fixed-capacity, pointer-free
// structs in a chunked slab, named by a node reference: slab position plus
// one, so 0 is "none" everywhere and the zero BTree is an empty tree that
// owns no memory. A chunk is never copied when the slab grows, and freed
// nodes go on a free list. Keys live in the tree's append-only arena, and a
// node slot names its key by (offset, length) plus an abbreviation (see
// abbrev). Values live in a chunked value slab of their own, and a node slot
// names its value by a value reference, so splits, merges, borrows and slot
// shifts move 4-byte references and never a value; a deleted key's reference
// goes on a value free list. The node slab and the arena hold no pointers,
// and the GC scans only values that do.
//
// A value never moves once stored: the address Ref returns stays valid, and
// keeps naming k's value, until k is deleted.
//
// The tree copies every key it stores, so callers keep ownership of (and may
// reuse) the buffers they pass. A key the tree hands back (AscendRange, Min,
// Max) is a view of the arena: immutable, valid for as long as the caller
// holds it, never to be written. The bytes of a deleted key stay in the arena
// until the tree is dropped, as records stay in the WAL.
type BTree[V any] struct {
	nodes [][]bnode
	vals  [][]V   // the value slab, addressed through val
	vfree []int32 // freed value references, reused last-freed first
	root  int32
	used  int32 // highest node reference handed out
	free  int32 // free-list head, linked through kids[0]
	vused int32 // value references handed out
	size  int
	arena []byte
}

// ent is one stored entry: its key, arena[off : off+n], and the reference v
// of its value in the value slab.
type ent struct {
	off, n uint32
	v      int32
}

// bnode is one node. Every key in it begins with the first plen bytes of
// ents[0]'s key (the node prefix), and abbr[i] is abbrev(key i, plen). A leaf
// has every kid zero; an internal node's children are kids[:n+1], and slots
// past them are never read.
type bnode struct {
	n    int32
	plen int32
	ents [btreeMaxKeys]ent
	abbr [btreeMaxKeys]uint64
	kids [btreeMaxKeys + 1]int32
}

func (n *bnode) leaf() bool { return n.kids[0] == 0 }

// Slab geometry: chunk c < nodeChunkShift holds references [2^c, 2^(c+1)),
// so a small tree's slab doubles from one node; every later chunk holds
// nodeChunk references, so a large tree over-allocates at most one chunk.
const (
	nodeChunkShift = 6
	nodeChunk      = 1 << nodeChunkShift
)

// slot returns the chunk and the offset in it of node reference r.
func slot(r int32) (c, j int32) {
	if r < nodeChunk {
		c = int32(bits.Len32(uint32(r))) - 1
		return c, r - 1<<c
	}
	return nodeChunkShift - 1 + r>>nodeChunkShift, r & (nodeChunk - 1)
}

func (t *BTree[V]) node(r int32) *bnode {
	c, j := slot(r)
	return &t.nodes[c][j]
}

// Value-slab geometry: value references come in units of valUnit, and unit
// u maps to a chunk as node reference u+1 does through slot, so chunk c holds
// valUnit<<min(c, nodeChunkShift) values. A node holds fewer than valUnit
// values, so the value slab never has more chunks than the node slab.
const (
	valUnitShift = 6
	valUnit      = 1 << valUnitShift
)

// val returns the address of the value that value reference v names.
func (t *BTree[V]) val(v int32) *V {
	c, u := slot(v>>valUnitShift + 1)
	return &t.vals[c][u<<valUnitShift|v&(valUnit-1)]
}

// valloc stores v under a value reference of its own, the most recently
// freed one or the next slab slot, and returns it.
func (t *BTree[V]) valloc(v V) int32 {
	var r int32
	if n := len(t.vfree); n > 0 {
		r, t.vfree = t.vfree[n-1], t.vfree[:n-1]
	} else {
		if c, _ := slot(t.vused>>valUnitShift + 1); int(c) == len(t.vals) {
			t.growVals()
		}
		r = t.vused
		t.vused++
	}
	*t.val(r) = v
	return r
}

// vrelease puts value reference v on the value free list and returns the
// value it held, zeroing its slot so the slab keeps no deleted row alive.
func (t *BTree[V]) vrelease(v int32) V {
	p := t.val(v)
	old := *p
	var zero V
	*p = zero
	t.vfree = append(t.vfree, v)
	return old
}

// alloc returns an empty leaf: the most recently freed node, or the next
// slab slot.
func (t *BTree[V]) alloc() int32 {
	if r := t.free; r != 0 {
		n := t.node(r)
		t.free = n.kids[0]
		*n = bnode{}
		return r
	}
	if c, _ := slot(t.used + 1); int(c) == len(t.nodes) {
		t.grow(0)
	}
	t.used++
	return t.used
}

// release puts node r on the free list. Its entries have moved elsewhere.
func (t *BTree[V]) release(r int32) {
	t.node(r).kids[0] = t.free
	t.free = r
}

// keyArenaMin is the first arena's capacity; later ones double.
const keyArenaMin = 256

// grow is the node slab's and the key arena's allocating path: it adds the
// next node chunk when the free list is empty and every slab slot is in use,
// and moves the key arena to one with room for need more bytes when it is
// short. Key references are offsets, so moving the arena invalidates nothing.
//
//detlint:coldpath
//go:noinline
func (t *BTree[V]) grow(need int) {
	if c, _ := slot(t.used + 1); t.free == 0 && int(c) == len(t.nodes) {
		n := 1 << min(len(t.nodes), nodeChunkShift)
		t.nodes = append(t.nodes, make([]bnode, n))
	}
	if cap(t.arena)-len(t.arena) < need {
		if len(t.arena)+need > math.MaxUint32 {
			panic("engine: btree key arena full")
		}
		a := make([]byte, len(t.arena), max(2*cap(t.arena), len(t.arena)+need, keyArenaMin))
		copy(a, t.arena)
		t.arena = a
	}
}

// growVals adds the next value chunk when every value-slab slot is in use.
// Value references are slab positions, so no value moves.
//
//detlint:coldpath
//go:noinline
func (t *BTree[V]) growVals() {
	t.vals = append(t.vals, make([]V, valUnit<<min(len(t.vals), nodeChunkShift)))
}

// own copies k into the arena and stores v in the value slab.
func (t *BTree[V]) own(k []byte, v V) ent {
	if cap(t.arena)-len(t.arena) < len(k) {
		t.grow(len(k))
	}
	off := len(t.arena)
	t.arena = append(t.arena, k...)
	return ent{uint32(off), uint32(len(k)), t.valloc(v)}
}

// key returns the stored bytes e names, capacity-clipped so an append by the
// holder can never write into the arena.
func (t *BTree[V]) key(e ent) []byte {
	end := e.off + e.n
	return t.arena[e.off:end:end]
}

// abbrev returns the eight bytes of k after its first plen, big-endian and
// zero-padded: an abbreviated key. Two keys sharing those plen bytes order
// as their abbreviations wherever the abbreviations differ, so a node search
// compares integers and reads key bytes only on a tie (Graefe, "Modern
// B-Tree Techniques", 2011; PostgreSQL's abbreviated keys). A single-column
// int key is a tag and eight bytes, so under any non-empty prefix it never
// ties.
func abbrev(k []byte, plen int) uint64 {
	k = k[plen:]
	if len(k) >= 8 {
		return binary.BigEndian.Uint64(k)
	}
	var a uint64
	for i, b := range k {
		a |= uint64(b) << (56 - 8*i)
	}
	return a
}

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// find returns the index of the first key >= k in n and whether it equals k.
func (t *BTree[V]) find(n *bnode, k []byte) (int, bool) {
	cnt := int(n.n)
	if cnt == 0 {
		return 0, false
	}
	plen := int(n.plen)
	if plen > 0 {
		// A key outside the node prefix sorts before or after all of n.
		p := t.key(n.ents[0])[:plen]
		m := min(plen, len(k))
		if c := bytes.Compare(k[:m], p[:m]); c != 0 || m < plen {
			if c > 0 {
				return cnt, false
			}
			return 0, false
		}
	}
	ak := abbrev(k, plen)
	lo, hi := 0, cnt
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := cmp.Compare(n.abbr[mid], ak)
		if c == 0 {
			// A tie means the suffixes agree on their first eight bytes,
			// and the shorter one, if at most eight, is zero-padded there:
			// then it is a prefix of the other, so the lengths decide.
			mk := t.key(n.ents[mid])
			if min(len(mk), len(k)) <= plen+8 {
				c = cmp.Compare(len(mk), len(k))
			} else {
				c = bytes.Compare(mk[plen+8:], k[plen+8:])
			}
			if c == 0 {
				return mid, true
			}
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, false
}

// admit makes n's prefix one that k shares too, so that k may be stored in
// n, and returns k's abbreviation under it. A prefix that shrinks
// re-abbreviates every key in the node.
func (t *BTree[V]) admit(n *bnode, k []byte) uint64 {
	if n.n == 0 {
		n.plen = int32(len(k))
		return 0
	}
	plen := int(n.plen)
	if m := commonPrefix(t.key(n.ents[0])[:plen], k); m < plen {
		n.plen = int32(m)
		t.reabbrev(n)
	}
	return abbrev(k, int(n.plen))
}

// reprefix widens n's prefix to the longest its keys share — that of its
// first and last key, as they are sorted — after keys moved in or out in
// bulk, and re-abbreviates them.
func (t *BTree[V]) reprefix(n *bnode) {
	n.plen = int32(commonPrefix(t.key(n.ents[0]), t.key(n.ents[n.n-1])))
	t.reabbrev(n)
}

func (t *BTree[V]) reabbrev(n *bnode) {
	plen := int(n.plen)
	for i := range n.n {
		n.abbr[i] = abbrev(t.key(n.ents[i]), plen)
	}
}

// insertSlot shifts the slots of n from i on right by one and stores e at
// i. e's key must lie inside the node prefix (see admit).
func insertSlot(n *bnode, i int, e ent, a uint64) {
	cnt := int(n.n)
	copy(n.ents[i+1:cnt+1], n.ents[i:cnt])
	copy(n.abbr[i+1:cnt+1], n.abbr[i:cnt])
	n.ents[i], n.abbr[i] = e, a
	n.n++
}

// removeSlot shifts the slots of n after i left by one.
func removeSlot(n *bnode, i int) {
	cnt := int(n.n)
	copy(n.ents[i:cnt-1], n.ents[i+1:cnt])
	copy(n.abbr[i:cnt-1], n.abbr[i+1:cnt])
	n.n--
}

// setSlot overwrites slot i of n with e.
func (t *BTree[V]) setSlot(n *bnode, i int, e ent) {
	n.abbr[i] = t.admit(n, t.key(e))
	n.ents[i] = e
}

// NewBTree returns an empty tree.
func NewBTree[V any]() *BTree[V] {
	return &BTree[V]{}
}

// Len returns the number of stored keys.
func (t *BTree[V]) Len() int { return t.size }

// Get returns the value stored under k.
//
//detlint:hotpath
func (t *BTree[V]) Get(k Key) (V, bool) {
	if p := t.Ref(k); p != nil {
		return *p, true
	}
	var zero V
	return zero, false
}

// Ref returns the address of the value stored under k, or nil, in one
// descent. A caller may read and write the value through it; the address
// stays valid until k is deleted.
//
//detlint:hotpath
func (t *BTree[V]) Ref(k Key) *V {
	for r := t.root; r != 0; {
		n := t.node(r)
		i, found := t.find(n, k)
		if found {
			return t.val(n.ents[i].v)
		}
		r = n.kids[i] // zero below a leaf
	}
	return nil
}

// Set stores v under k, returning the previous value if one existed.
//
//detlint:hotpath
func (t *BTree[V]) Set(k Key, v V) (old V, replaced bool) {
	if t.root == 0 {
		t.root = t.alloc()
	}
	if t.node(t.root).n == btreeMaxKeys {
		oldRoot := t.root
		t.root = t.alloc()
		t.node(t.root).kids[0] = oldRoot
		t.splitChild(t.root, 0)
	}
	old, replaced = t.insertNonFull(t.root, k, v)
	if !replaced {
		t.size++
	}
	return old, replaced
}

// splitChild splits the full child at index i of node pr.
func (t *BTree[V]) splitChild(pr int32, i int) {
	rr := t.alloc()
	parent := t.node(pr)
	child, right := t.node(parent.kids[i]), t.node(rr)
	mid, cnt := btreeMinKeys, int(child.n)
	copy(right.ents[:], child.ents[mid+1:cnt])
	if !child.leaf() {
		copy(right.kids[:], child.kids[mid+1:cnt+1])
	}
	right.n = int32(cnt - mid - 1)
	up := child.ents[mid]
	child.n = int32(mid)
	t.reprefix(child)
	t.reprefix(right)
	pcnt := int(parent.n)
	insertSlot(parent, i, up, t.admit(parent, t.key(up)))
	copy(parent.kids[i+2:pcnt+2], parent.kids[i+1:pcnt+1])
	parent.kids[i+1] = rr
}

func (t *BTree[V]) insertNonFull(r int32, k Key, v V) (old V, replaced bool) {
	for {
		n := t.node(r)
		i, found := t.find(n, k)
		if found {
			p := t.val(n.ents[i].v)
			old, *p = *p, v
			return old, true
		}
		if n.leaf() {
			a := t.admit(n, k)
			insertSlot(n, i, t.own(k, v), a)
			return old, false
		}
		if t.node(n.kids[i]).n == btreeMaxKeys {
			t.splitChild(r, i)
			cmp := bytes.Compare(k, t.key(n.ents[i]))
			if cmp == 0 {
				p := t.val(n.ents[i].v)
				old, *p = *p, v
				return old, true
			}
			if cmp > 0 {
				i++
			}
		}
		r = n.kids[i]
	}
}

// Delete removes k, returning the removed value if it existed.
func (t *BTree[V]) Delete(k Key) (old V, deleted bool) {
	if t.root == 0 {
		return old, false
	}
	old, deleted = t.delete(t.root, k)
	if deleted {
		t.size--
	}
	if root := t.node(t.root); root.n == 0 && !root.leaf() {
		gone := t.root
		t.root = root.kids[0]
		t.release(gone)
	}
	return old, deleted
}

func (t *BTree[V]) delete(r int32, k Key) (old V, deleted bool) {
	n := t.node(r)
	i, found := t.find(n, k)
	if n.leaf() {
		if !found {
			return old, false
		}
		old = t.vrelease(n.ents[i].v)
		removeSlot(n, i)
		return old, true
	}
	if found {
		// Replace with predecessor from the left subtree, then delete it there.
		gone := n.ents[i].v
		if left := n.kids[i]; t.node(left).n > btreeMinKeys {
			t.setSlot(n, i, t.deleteMax(left))
			return t.vrelease(gone), true
		}
		if right := n.kids[i+1]; t.node(right).n > btreeMinKeys {
			t.setSlot(n, i, t.deleteMin(right))
			return t.vrelease(gone), true
		}
		// The key moves down into the merged child and is deleted there.
		t.mergeChildren(r, i)
		if old, deleted = t.delete(n.kids[i], k); !deleted {
			panic("engine: btree lost key during merge delete")
		}
		return old, true
	}
	// Ensure the child we descend into has > minKeys.
	if t.node(n.kids[i]).n <= btreeMinKeys {
		i = t.fill(r, i)
	}
	return t.delete(n.kids[i], k)
}

func (t *BTree[V]) deleteMax(r int32) ent {
	for {
		n := t.node(r)
		if n.leaf() {
			last := int(n.n) - 1
			e := n.ents[last]
			removeSlot(n, last)
			return e
		}
		i := int(n.n)
		if t.node(n.kids[i]).n <= btreeMinKeys {
			// fill may merge; recompute rightmost path
			i = min(t.fill(r, i), int(n.n))
		}
		r = n.kids[i]
	}
}

func (t *BTree[V]) deleteMin(r int32) ent {
	for {
		n := t.node(r)
		if n.leaf() {
			e := n.ents[0]
			removeSlot(n, 0)
			return e
		}
		if t.node(n.kids[0]).n <= btreeMinKeys {
			t.fill(r, 0)
		}
		r = n.kids[0]
	}
}

// fill ensures child i of node r has more than minKeys, borrowing from a
// sibling or merging. It returns the (possibly shifted) child index to
// descend into.
func (t *BTree[V]) fill(r int32, i int) int {
	n := t.node(r)
	if i > 0 && t.node(n.kids[i-1]).n > btreeMinKeys {
		t.borrowFromLeft(r, i)
		return i
	}
	if i < int(n.n) && t.node(n.kids[i+1]).n > btreeMinKeys {
		t.borrowFromRight(r, i)
		return i
	}
	if i < int(n.n) {
		t.mergeChildren(r, i)
		return i
	}
	t.mergeChildren(r, i-1)
	return i - 1
}

// borrowFromLeft rotates the last key of child i-1 through separator i-1
// into the front of child i.
func (t *BTree[V]) borrowFromLeft(r int32, i int) {
	n := t.node(r)
	child, left := t.node(n.kids[i]), t.node(n.kids[i-1])
	ccnt, last := int(child.n), int(left.n)-1
	sep := n.ents[i-1]
	insertSlot(child, 0, sep, t.admit(child, t.key(sep)))
	t.setSlot(n, i-1, left.ents[last])
	if !child.leaf() {
		copy(child.kids[1:ccnt+2], child.kids[:ccnt+1])
		child.kids[0] = left.kids[last+1]
	}
	removeSlot(left, last)
}

// borrowFromRight rotates the first key of child i+1 through separator i
// onto the end of child i.
func (t *BTree[V]) borrowFromRight(r int32, i int) {
	n := t.node(r)
	child, right := t.node(n.kids[i]), t.node(n.kids[i+1])
	ccnt, rcnt := int(child.n), int(right.n)
	sep := n.ents[i]
	insertSlot(child, ccnt, sep, t.admit(child, t.key(sep)))
	t.setSlot(n, i, right.ents[0])
	if !child.leaf() {
		child.kids[ccnt+1] = right.kids[0]
		copy(right.kids[:rcnt], right.kids[1:rcnt+1])
	}
	removeSlot(right, 0)
}

// mergeChildren merges child i, separator i and child i+1 of node r into
// child i, and frees child i+1.
func (t *BTree[V]) mergeChildren(r int32, i int) {
	n := t.node(r)
	rr := n.kids[i+1]
	left, right := t.node(n.kids[i]), t.node(rr)
	lcnt, rcnt, cnt := int(left.n), int(right.n), int(n.n)
	left.ents[lcnt] = n.ents[i]
	copy(left.ents[lcnt+1:], right.ents[:rcnt])
	if !left.leaf() {
		copy(left.kids[lcnt+1:], right.kids[:rcnt+1])
	}
	left.n = int32(lcnt + 1 + rcnt)
	t.reprefix(left)
	copy(n.kids[i+1:cnt], n.kids[i+2:cnt+1])
	removeSlot(n, i)
	t.release(rr)
}

// AscendRange visits keys in [lo, hi) in order, calling fn for each; fn
// returning false stops the scan. A nil lo starts at the minimum; a nil hi
// scans to the end.
func (t *BTree[V]) AscendRange(lo, hi Key, fn func(k Key, v V) bool) {
	if t.root != 0 {
		t.ascend(t.root, lo, hi, fn)
	}
}

func (t *BTree[V]) ascend(r int32, lo, hi Key, fn func(k Key, v V) bool) bool {
	n := t.node(r)
	start := 0
	if lo != nil {
		start, _ = t.find(n, lo)
	}
	for i := start; i <= int(n.n); i++ {
		if !n.leaf() {
			if !t.ascend(n.kids[i], lo, hi, fn) {
				return false
			}
		}
		if i == int(n.n) {
			break
		}
		k := t.key(n.ents[i])
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			return false
		}
		if !fn(k, *t.val(n.ents[i].v)) {
			return false
		}
	}
	return true
}

// Min returns the smallest key and its value.
func (t *BTree[V]) Min() (Key, V, bool) {
	if t.size == 0 {
		var zero V
		return nil, zero, false
	}
	n := t.node(t.root)
	for !n.leaf() {
		n = t.node(n.kids[0])
	}
	return t.key(n.ents[0]), *t.val(n.ents[0].v), true
}

// Max returns the largest key and its value.
func (t *BTree[V]) Max() (Key, V, bool) {
	if t.size == 0 {
		var zero V
		return nil, zero, false
	}
	n := t.node(t.root)
	for !n.leaf() {
		n = t.node(n.kids[n.n])
	}
	e := n.ents[n.n-1]
	return t.key(e), *t.val(e.v), true
}

// clone returns a tree with t's contents that evolves independently of it:
// the node and value chunks and the value free list are copied, and the
// arena is shared with its capacity clipped on both sides, so that whichever
// tree inserts next moves to an arena of its own instead of writing past the
// other's keys. Values are copied shallowly, which is what DB snapshots
// need: stored rows are immutable. A value written through one tree's Ref
// lands in that tree's own value chunk. A clipped t (any clone, hence any
// snapshot) is only read, so any number of clones may be taken from it
// concurrently.
func (t *BTree[V]) clone() *BTree[V] {
	if len(t.arena) != cap(t.arena) {
		t.arena = t.arena[:len(t.arena):len(t.arena)]
	}
	c := *t
	c.nodes = make([][]bnode, len(t.nodes))
	for i := range t.nodes {
		c.nodes[i] = slices.Clone(t.nodes[i])
	}
	c.vals = make([][]V, len(t.vals))
	for i := range t.vals {
		c.vals[i] = slices.Clone(t.vals[i])
	}
	c.vfree = slices.Clone(t.vfree)
	return &c
}
