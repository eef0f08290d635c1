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
// abbrev). Values sit in a parallel slab, so the node slab and the arena hold
// no pointers and the GC scans only values that do.
//
// The tree copies every key it stores, so callers keep ownership of (and may
// reuse) the buffers they pass. A key the tree hands back (AscendRange, Min,
// Max) is a view of the arena: immutable, valid for as long as the caller
// holds it, never to be written. The bytes of a deleted key stay in the arena
// until the tree is dropped, as records stay in the WAL.
type BTree[V any] struct {
	nodes [][]bnode
	vals  [][][btreeMaxKeys]V // vals[c][j] holds the values of nodes[c][j]
	root  int32
	used  int32 // highest node reference handed out
	free  int32 // free-list head, linked through kids[0]
	size  int
	arena []byte
}

// keyRef names one stored key: arena[off : off+n].
type keyRef struct{ off, n uint32 }

// bnode is one node. Every key in it begins with the first plen bytes of
// keys[0] (the node prefix), and abbr[i] is abbrev(key i, plen). A leaf has
// every kid zero; an internal node's children are kids[:n+1], and slots past
// them are never read.
type bnode struct {
	n    int32
	plen int32
	keys [btreeMaxKeys]keyRef
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

func (t *BTree[V]) valsOf(r int32) *[btreeMaxKeys]V {
	c, j := slot(r)
	return &t.vals[c][j]
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

// release puts node r on the free list, dropping its values.
func (t *BTree[V]) release(r int32) {
	clear(t.valsOf(r)[:])
	t.node(r).kids[0] = t.free
	t.free = r
}

// keyArenaMin is the first arena's capacity; later ones double.
const keyArenaMin = 256

// grow is the tree's one allocating path: it adds the next node chunk when
// the free list is empty and every slab slot is in use, and moves the key
// arena to one with room for need more bytes when it is short. Key
// references are offsets, so moving the arena invalidates nothing.
//
//detlint:coldpath
//go:noinline
func (t *BTree[V]) grow(need int) {
	if c, _ := slot(t.used + 1); t.free == 0 && int(c) == len(t.nodes) {
		n := 1 << min(len(t.nodes), nodeChunkShift)
		t.nodes = append(t.nodes, make([]bnode, n))
		t.vals = append(t.vals, make([][btreeMaxKeys]V, n))
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

// ownKey copies k into the arena.
func (t *BTree[V]) ownKey(k []byte) keyRef {
	if cap(t.arena)-len(t.arena) < len(k) {
		t.grow(len(k))
	}
	off := len(t.arena)
	t.arena = append(t.arena, k...)
	return keyRef{uint32(off), uint32(len(k))}
}

// key returns the stored bytes kr names, capacity-clipped so an append by
// the holder can never write into the arena.
func (t *BTree[V]) key(kr keyRef) []byte {
	end := kr.off + kr.n
	return t.arena[kr.off:end:end]
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
		p := t.key(n.keys[0])[:plen]
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
			if c = bytes.Compare(t.key(n.keys[mid])[plen:], k[plen:]); c == 0 {
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
	if m := commonPrefix(t.key(n.keys[0])[:plen], k); m < plen {
		n.plen = int32(m)
		t.reabbrev(n)
	}
	return abbrev(k, int(n.plen))
}

// reprefix widens n's prefix to the longest its keys share — that of its
// first and last key, as they are sorted — after keys moved in or out in
// bulk, and re-abbreviates them.
func (t *BTree[V]) reprefix(n *bnode) {
	n.plen = int32(commonPrefix(t.key(n.keys[0]), t.key(n.keys[n.n-1])))
	t.reabbrev(n)
}

func (t *BTree[V]) reabbrev(n *bnode) {
	plen := int(n.plen)
	for i := range n.n {
		n.abbr[i] = abbrev(t.key(n.keys[i]), plen)
	}
}

// insertSlot shifts the slots of n from i on right by one and stores
// (kr, v) at i. kr's bytes must lie inside the node prefix (see admit).
func insertSlot[V any](n *bnode, vs *[btreeMaxKeys]V, i int, kr keyRef, a uint64, v V) {
	cnt := int(n.n)
	copy(n.keys[i+1:cnt+1], n.keys[i:cnt])
	copy(n.abbr[i+1:cnt+1], n.abbr[i:cnt])
	copy(vs[i+1:cnt+1], vs[i:cnt])
	n.keys[i], n.abbr[i], vs[i] = kr, a, v
	n.n++
}

// removeSlot shifts the slots of n after i left by one.
func removeSlot[V any](n *bnode, vs *[btreeMaxKeys]V, i int) {
	cnt := int(n.n)
	copy(n.keys[i:cnt-1], n.keys[i+1:cnt])
	copy(n.abbr[i:cnt-1], n.abbr[i+1:cnt])
	copy(vs[i:cnt-1], vs[i+1:cnt])
	var zero V
	vs[cnt-1] = zero
	n.n--
}

// setSlot overwrites slot i of n with (kr, v).
func (t *BTree[V]) setSlot(n *bnode, vs *[btreeMaxKeys]V, i int, kr keyRef, v V) {
	n.abbr[i] = t.admit(n, t.key(kr))
	n.keys[i], vs[i] = kr, v
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
	for r := t.root; r != 0; {
		n := t.node(r)
		i, found := t.find(n, k)
		if found {
			return t.valsOf(r)[i], true
		}
		r = n.kids[i] // zero below a leaf
	}
	var zero V
	return zero, false
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
	parent, pv := t.node(pr), t.valsOf(pr)
	cr := parent.kids[i]
	child, cv := t.node(cr), t.valsOf(cr)
	right, rv := t.node(rr), t.valsOf(rr)
	mid, cnt := btreeMinKeys, int(child.n)
	copy(right.keys[:], child.keys[mid+1:cnt])
	copy(rv[:], cv[mid+1:cnt])
	if !child.leaf() {
		copy(right.kids[:], child.kids[mid+1:cnt+1])
	}
	right.n = int32(cnt - mid - 1)
	upKey, upVal := child.keys[mid], cv[mid]
	clear(cv[mid:cnt])
	child.n = int32(mid)
	t.reprefix(child)
	t.reprefix(right)
	pcnt := int(parent.n)
	insertSlot(parent, pv, i, upKey, t.admit(parent, t.key(upKey)), upVal)
	copy(parent.kids[i+2:pcnt+2], parent.kids[i+1:pcnt+1])
	parent.kids[i+1] = rr
}

func (t *BTree[V]) insertNonFull(r int32, k Key, v V) (old V, replaced bool) {
	for {
		n, vs := t.node(r), t.valsOf(r)
		i, found := t.find(n, k)
		if found {
			old = vs[i]
			vs[i] = v
			return old, true
		}
		if n.leaf() {
			a := t.admit(n, k)
			insertSlot(n, vs, i, t.ownKey(k), a, v)
			return old, false
		}
		if t.node(n.kids[i]).n == btreeMaxKeys {
			t.splitChild(r, i)
			cmp := bytes.Compare(k, t.key(n.keys[i]))
			if cmp == 0 {
				old = vs[i]
				vs[i] = v
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
	n, vs := t.node(r), t.valsOf(r)
	i, found := t.find(n, k)
	if n.leaf() {
		if !found {
			return old, false
		}
		old = vs[i]
		removeSlot(n, vs, i)
		return old, true
	}
	if found {
		// Replace with predecessor from the left subtree, then delete it there.
		old = vs[i]
		if left := n.kids[i]; t.node(left).n > btreeMinKeys {
			pk, pv := t.deleteMax(left)
			t.setSlot(n, vs, i, pk, pv)
			return old, true
		}
		if right := n.kids[i+1]; t.node(right).n > btreeMinKeys {
			sk, sv := t.deleteMin(right)
			t.setSlot(n, vs, i, sk, sv)
			return old, true
		}
		t.mergeChildren(r, i)
		if _, del := t.delete(n.kids[i], k); !del {
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

func (t *BTree[V]) deleteMax(r int32) (keyRef, V) {
	for {
		n, vs := t.node(r), t.valsOf(r)
		if n.leaf() {
			last := int(n.n) - 1
			kr, v := n.keys[last], vs[last]
			removeSlot(n, vs, last)
			return kr, v
		}
		i := int(n.n)
		if t.node(n.kids[i]).n <= btreeMinKeys {
			// fill may merge; recompute rightmost path
			i = min(t.fill(r, i), int(n.n))
		}
		r = n.kids[i]
	}
}

func (t *BTree[V]) deleteMin(r int32) (keyRef, V) {
	for {
		n, vs := t.node(r), t.valsOf(r)
		if n.leaf() {
			kr, v := n.keys[0], vs[0]
			removeSlot(n, vs, 0)
			return kr, v
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
	n, nv := t.node(r), t.valsOf(r)
	child, cv := t.node(n.kids[i]), t.valsOf(n.kids[i])
	left, lv := t.node(n.kids[i-1]), t.valsOf(n.kids[i-1])
	ccnt, last := int(child.n), int(left.n)-1
	sep := n.keys[i-1]
	insertSlot(child, cv, 0, sep, t.admit(child, t.key(sep)), nv[i-1])
	t.setSlot(n, nv, i-1, left.keys[last], lv[last])
	if !child.leaf() {
		copy(child.kids[1:ccnt+2], child.kids[:ccnt+1])
		child.kids[0] = left.kids[last+1]
	}
	removeSlot(left, lv, last)
}

// borrowFromRight rotates the first key of child i+1 through separator i
// onto the end of child i.
func (t *BTree[V]) borrowFromRight(r int32, i int) {
	n, nv := t.node(r), t.valsOf(r)
	child, cv := t.node(n.kids[i]), t.valsOf(n.kids[i])
	right, rv := t.node(n.kids[i+1]), t.valsOf(n.kids[i+1])
	ccnt, rcnt := int(child.n), int(right.n)
	sep := n.keys[i]
	insertSlot(child, cv, ccnt, sep, t.admit(child, t.key(sep)), nv[i])
	t.setSlot(n, nv, i, right.keys[0], rv[0])
	if !child.leaf() {
		child.kids[ccnt+1] = right.kids[0]
		copy(right.kids[:rcnt], right.kids[1:rcnt+1])
	}
	removeSlot(right, rv, 0)
}

// mergeChildren merges child i, separator i and child i+1 of node r into
// child i, and frees child i+1.
func (t *BTree[V]) mergeChildren(r int32, i int) {
	n, nv := t.node(r), t.valsOf(r)
	lr, rr := n.kids[i], n.kids[i+1]
	left, lv := t.node(lr), t.valsOf(lr)
	right, rv := t.node(rr), t.valsOf(rr)
	lcnt, rcnt, cnt := int(left.n), int(right.n), int(n.n)
	left.keys[lcnt], lv[lcnt] = n.keys[i], nv[i]
	copy(left.keys[lcnt+1:], right.keys[:rcnt])
	copy(lv[lcnt+1:], rv[:rcnt])
	if !left.leaf() {
		copy(left.kids[lcnt+1:], right.kids[:rcnt+1])
	}
	left.n = int32(lcnt + 1 + rcnt)
	t.reprefix(left)
	copy(n.kids[i+1:cnt], n.kids[i+2:cnt+1])
	removeSlot(n, nv, i)
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
	n, vs := t.node(r), t.valsOf(r)
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
		k := t.key(n.keys[i])
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			return false
		}
		if !fn(k, vs[i]) {
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
	r, n := t.root, t.node(t.root)
	for !n.leaf() {
		r = n.kids[0]
		n = t.node(r)
	}
	return t.key(n.keys[0]), t.valsOf(r)[0], true
}

// Max returns the largest key and its value.
func (t *BTree[V]) Max() (Key, V, bool) {
	if t.size == 0 {
		var zero V
		return nil, zero, false
	}
	r, n := t.root, t.node(t.root)
	for !n.leaf() {
		r = n.kids[n.n]
		n = t.node(r)
	}
	last := n.n - 1
	return t.key(n.keys[last]), t.valsOf(r)[last], true
}

// clone returns a tree with t's contents that evolves independently of it:
// the node and value chunks are copied, and the arena is shared with its
// capacity clipped on both sides, so that whichever tree inserts next moves
// to an arena of its own instead of writing past the other's keys. Values
// are copied shallowly, which is what DB snapshots need: stored rows are
// immutable. A clipped t (any clone, hence any snapshot) is only read, so
// any number of clones may be taken from it concurrently.
func (t *BTree[V]) clone() *BTree[V] {
	if len(t.arena) != cap(t.arena) {
		t.arena = t.arena[:len(t.arena):len(t.arena)]
	}
	c := *t
	c.nodes = make([][]bnode, len(t.nodes))
	c.vals = make([][][btreeMaxKeys]V, len(t.vals))
	for i := range t.nodes {
		c.nodes[i] = slices.Clone(t.nodes[i])
		c.vals[i] = slices.Clone(t.vals[i])
	}
	return &c
}
