package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// refBTree is the pointer-per-node B-tree that the slab tree replaced, kept
// verbatim (renamed) as the oracle for TestSlabBTreeMatchesReference and
// FuzzBTreeOps: nodes are heap objects holding key, value and child slices,
// and keys are owned copies in a chunked arena. It defines the semantics
// the slab tree must reproduce — every return value, the in-order contents,
// Min/Max and range scans — and is not built into the product.

// refBTreeDegree is the minimum degree t: nodes hold between t-1 and 2t-1 keys
// (except the root). 32 gives wide, shallow trees suited to in-memory use.
const refBTreeDegree = 32

const (
	refBTreeMaxKeys = 2*refBTreeDegree - 1
	refBTreeMinKeys = refBTreeDegree - 1
)

// refBTree is an in-memory B-tree mapping memcomparable keys to values. It is
// the delta store under every table: written rows, tombstones, and replica
// overlays all live in B-trees. It follows the single-runnable discipline
// of the simulation and therefore needs no internal locking.
type refBTree[V any] struct {
	root *refBTreeNode[V]
	size int
	// arena is the tail of the tree's append-only key storage: a leaf insert
	// copies the caller's key bytes here, so callers keep ownership of (and
	// may reuse) the buffer they passed. Keys are immutable once stored;
	// a chunk is collected when every key carved from it has left the tree.
	// An empty tree owns no chunk.
	arena []byte
}

// refKeyArenaChunk sizes one block of key storage (about 450 int keys).
const refKeyArenaChunk = 4 << 10

// ownKey copies k into the tree's key arena.
func (t *refBTree[V]) ownKey(k []byte) []byte {
	t.arena = reserve(t.arena, len(k), refKeyArenaChunk)
	n := len(t.arena)
	t.arena = append(t.arena, k...)
	return t.arena[n:len(t.arena):len(t.arena)]
}

type refBTreeNode[V any] struct {
	keys     [][]byte
	vals     []V
	children []*refBTreeNode[V] // nil for leaves
}

func (n *refBTreeNode[V]) leaf() bool { return n.children == nil }

// find returns the index of the first key >= k and whether it equals k.
func (n *refBTreeNode[V]) find(k []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.keys) && bytes.Equal(n.keys[lo], k) {
		return lo, true
	}
	return lo, false
}

// newRefBTree returns an empty tree.
func newRefBTree[V any]() *refBTree[V] {
	return &refBTree[V]{root: &refBTreeNode[V]{}}
}

// Len returns the number of stored keys.
func (t *refBTree[V]) Len() int { return t.size }

// Get returns the value stored under k.
func (t *refBTree[V]) Get(k Key) (V, bool) {
	n := t.root
	for {
		i, found := n.find(k)
		if found {
			return n.vals[i], true
		}
		if n.leaf() {
			var zero V
			return zero, false
		}
		n = n.children[i]
	}
}

// Set stores v under k, returning the previous value if one existed.
func (t *refBTree[V]) Set(k Key, v V) (old V, replaced bool) {
	if len(t.root.keys) == refBTreeMaxKeys {
		oldRoot := t.root
		t.root = &refBTreeNode[V]{children: []*refBTreeNode[V]{oldRoot}}
		t.splitChild(t.root, 0)
	}
	old, replaced = t.insertNonFull(t.root, k, v)
	if !replaced {
		t.size++
	}
	return old, replaced
}

// splitChild splits the full child at index i of parent.
func (t *refBTree[V]) splitChild(parent *refBTreeNode[V], i int) {
	child := parent.children[i]
	mid := refBTreeMinKeys
	right := &refBTreeNode[V]{
		keys: append([][]byte(nil), child.keys[mid+1:]...),
		vals: append([]V(nil), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*refBTreeNode[V](nil), child.children[mid+1:]...)
	}
	upKey, upVal := child.keys[mid], child.vals[mid]
	child.keys = child.keys[:mid]
	child.vals = child.vals[:mid]
	if !child.leaf() {
		child.children = child.children[:mid+1]
	}
	parent.keys = append(parent.keys, nil)
	copy(parent.keys[i+1:], parent.keys[i:])
	parent.keys[i] = upKey
	var zero V
	parent.vals = append(parent.vals, zero)
	copy(parent.vals[i+1:], parent.vals[i:])
	parent.vals[i] = upVal
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (t *refBTree[V]) insertNonFull(n *refBTreeNode[V], k Key, v V) (old V, replaced bool) {
	for {
		i, found := n.find(k)
		if found {
			old = n.vals[i]
			n.vals[i] = v
			return old, true
		}
		if n.leaf() {
			n.keys = append(n.keys, nil)
			copy(n.keys[i+1:], n.keys[i:])
			n.keys[i] = t.ownKey(k)
			var zero V
			n.vals = append(n.vals, zero)
			copy(n.vals[i+1:], n.vals[i:])
			n.vals[i] = v
			return old, false
		}
		if len(n.children[i].keys) == refBTreeMaxKeys {
			t.splitChild(n, i)
			cmp := bytes.Compare(k, n.keys[i])
			if cmp == 0 {
				old = n.vals[i]
				n.vals[i] = v
				return old, true
			}
			if cmp > 0 {
				i++
			}
		}
		n = n.children[i]
	}
}

// Delete removes k, returning the removed value if it existed.
func (t *refBTree[V]) Delete(k Key) (old V, deleted bool) {
	old, deleted = t.delete(t.root, k)
	if deleted {
		t.size--
	}
	if len(t.root.keys) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return old, deleted
}

func (t *refBTree[V]) delete(n *refBTreeNode[V], k Key) (old V, deleted bool) {
	i, found := n.find(k)
	if n.leaf() {
		if !found {
			var zero V
			return zero, false
		}
		old = n.vals[i]
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		return old, true
	}
	if found {
		// Replace with predecessor from the left subtree, then delete it there.
		old = n.vals[i]
		left := n.children[i]
		if len(left.keys) > refBTreeMinKeys {
			pk, pv := t.deleteMax(left)
			n.keys[i], n.vals[i] = pk, pv
			return old, true
		}
		right := n.children[i+1]
		if len(right.keys) > refBTreeMinKeys {
			sk, sv := t.deleteMin(right)
			n.keys[i], n.vals[i] = sk, sv
			return old, true
		}
		t.mergeChildren(n, i)
		return t.deleteDescend(n, i, k, old)
	}
	// Ensure the child we descend into has > minKeys.
	if len(n.children[i].keys) <= refBTreeMinKeys {
		i = t.fill(n, i)
	}
	return t.delete(n.children[i], k)
}

// deleteDescend finishes a merged-case deletion: the key now lives in
// children[i] after mergeChildren.
func (t *refBTree[V]) deleteDescend(n *refBTreeNode[V], i int, k Key, old V) (V, bool) {
	_, del := t.delete(n.children[i], k)
	if !del {
		panic("engine: btree lost key during merge delete")
	}
	return old, true
}

func (t *refBTree[V]) deleteMax(n *refBTreeNode[V]) ([]byte, V) {
	for {
		if n.leaf() {
			last := len(n.keys) - 1
			k, v := n.keys[last], n.vals[last]
			n.keys = n.keys[:last]
			n.vals = n.vals[:last]
			return k, v
		}
		i := len(n.children) - 1
		if len(n.children[i].keys) <= refBTreeMinKeys {
			i = t.fill(n, i)
			// fill may merge; recompute rightmost path
			if i >= len(n.children) {
				i = len(n.children) - 1
			}
		}
		n = n.children[i]
	}
}

func (t *refBTree[V]) deleteMin(n *refBTreeNode[V]) ([]byte, V) {
	for {
		if n.leaf() {
			k, v := n.keys[0], n.vals[0]
			n.keys = append(n.keys[:0], n.keys[1:]...)
			n.vals = append(n.vals[:0], n.vals[1:]...)
			return k, v
		}
		if len(n.children[0].keys) <= refBTreeMinKeys {
			t.fill(n, 0)
		}
		n = n.children[0]
	}
}

// fill ensures children[i] has more than minKeys, borrowing from a sibling
// or merging. It returns the (possibly shifted) child index to descend into.
func (t *refBTree[V]) fill(n *refBTreeNode[V], i int) int {
	if i > 0 && len(n.children[i-1].keys) > refBTreeMinKeys {
		t.borrowFromLeft(n, i)
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].keys) > refBTreeMinKeys {
		t.borrowFromRight(n, i)
		return i
	}
	if i < len(n.children)-1 {
		t.mergeChildren(n, i)
		return i
	}
	t.mergeChildren(n, i-1)
	return i - 1
}

func (t *refBTree[V]) borrowFromLeft(n *refBTreeNode[V], i int) {
	child, left := n.children[i], n.children[i-1]
	child.keys = append(child.keys, nil)
	copy(child.keys[1:], child.keys)
	child.keys[0] = n.keys[i-1]
	var zero V
	child.vals = append(child.vals, zero)
	copy(child.vals[1:], child.vals)
	child.vals[0] = n.vals[i-1]
	last := len(left.keys) - 1
	n.keys[i-1] = left.keys[last]
	n.vals[i-1] = left.vals[last]
	left.keys = left.keys[:last]
	left.vals = left.vals[:last]
	if !child.leaf() {
		child.children = append(child.children, nil)
		copy(child.children[1:], child.children)
		child.children[0] = left.children[len(left.children)-1]
		left.children = left.children[:len(left.children)-1]
	}
}

func (t *refBTree[V]) borrowFromRight(n *refBTreeNode[V], i int) {
	child, right := n.children[i], n.children[i+1]
	child.keys = append(child.keys, n.keys[i])
	child.vals = append(child.vals, n.vals[i])
	n.keys[i] = right.keys[0]
	n.vals[i] = right.vals[0]
	right.keys = append(right.keys[:0], right.keys[1:]...)
	right.vals = append(right.vals[:0], right.vals[1:]...)
	if !child.leaf() {
		child.children = append(child.children, right.children[0])
		right.children = append(right.children[:0], right.children[1:]...)
	}
}

// mergeChildren merges children[i], the separator key i, and children[i+1].
func (t *refBTree[V]) mergeChildren(n *refBTreeNode[V], i int) {
	left, right := n.children[i], n.children[i+1]
	left.keys = append(left.keys, n.keys[i])
	left.vals = append(left.vals, n.vals[i])
	left.keys = append(left.keys, right.keys...)
	left.vals = append(left.vals, right.vals...)
	if !left.leaf() {
		left.children = append(left.children, right.children...)
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// AscendRange visits keys in [lo, hi) in order, calling fn for each; fn
// returning false stops the scan. A nil lo starts at the minimum; a nil hi
// scans to the end.
func (t *refBTree[V]) AscendRange(lo, hi Key, fn func(k Key, v V) bool) {
	t.ascend(t.root, lo, hi, fn)
}

func (t *refBTree[V]) ascend(n *refBTreeNode[V], lo, hi Key, fn func(k Key, v V) bool) bool {
	start := 0
	if lo != nil {
		start, _ = n.find(lo)
	}
	for i := start; i <= len(n.keys); i++ {
		if !n.leaf() {
			if !t.ascend(n.children[i], lo, hi, fn) {
				return false
			}
		}
		if i == len(n.keys) {
			break
		}
		if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
			return false
		}
		if lo != nil && bytes.Compare(n.keys[i], lo) < 0 {
			continue
		}
		if !fn(n.keys[i], n.vals[i]) {
			return false
		}
	}
	return true
}

// Min returns the smallest key and its value.
func (t *refBTree[V]) Min() (Key, V, bool) {
	n := t.root
	if len(n.keys) == 0 {
		var zero V
		return nil, zero, false
	}
	for !n.leaf() {
		n = n.children[0]
	}
	return n.keys[0], n.vals[0], true
}

// Max returns the largest key and its value.
func (t *refBTree[V]) Max() (Key, V, bool) {
	n := t.root
	if len(n.keys) == 0 {
		var zero V
		return nil, zero, false
	}
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	last := len(n.keys) - 1
	return n.keys[last], n.vals[last], true
}

// btreePair is one slab tree and the reference it must agree with, plus
// reusable buffers for comparing their contents and the address the slab
// tree's Ref last returned for each key not deleted since.
type btreePair struct {
	slab  *BTree[int]
	ref   *refBTree[int]
	buf   *btreeContents
	addrs map[string]*int
}

type btreeContents struct {
	slabKeys, refKeys []Key
	slabVals, refVals []int
}

func (b *btreeContents) same() bool {
	return slices.EqualFunc(b.slabKeys, b.refKeys, func(x, y Key) bool { return bytes.Equal(x, y) }) &&
		slices.Equal(b.slabVals, b.refVals)
}

func newBTreePair() btreePair {
	return btreePair{slab: NewBTree[int](), ref: newRefBTree[int](), buf: &btreeContents{}, addrs: map[string]*int{}}
}

// fork clones a pair: the slab side through clone, the reference side by
// reinserting its contents, so either fork may diverge from the other.
func (p btreePair) fork() btreePair {
	ref := newRefBTree[int]()
	p.ref.AscendRange(nil, nil, func(k Key, v int) bool {
		ref.Set(k, v)
		return true
	})
	return btreePair{slab: p.slab.clone(), ref: ref, buf: &btreeContents{}, addrs: map[string]*int{}}
}

// btreeOp is one scripted operation; lo/hi are range bounds (nil = open) and
// stop the number of visits after which a range scan returns false (0 =
// never). pair picks the fork it runs on.
type btreeOp struct {
	kind   byte
	k      Key
	v      int
	lo, hi Key
	stop   int
	pair   int
}

const (
	opSet byte = iota
	opDelete
	opGet
	opRange
	opMin
	opMax
	opFork
	opRef    // read through Ref
	opRefSet // write v through Ref when k is present
	opKinds
)

// apply runs op on both sides of p and reports the first disagreement in a
// return value, the length, the in-order contents or a node invariant. It
// returns the slab tree's height.
func (p btreePair) apply(op btreeOp) (int, error) {
	switch op.kind {
	case opSet:
		o1, r1 := p.slab.Set(op.k, op.v)
		o2, r2 := p.ref.Set(op.k, op.v)
		if o1 != o2 || r1 != r2 {
			return 0, fmt.Errorf("Set(%x) = %d,%v; reference %d,%v", op.k, o1, r1, o2, r2)
		}
	case opDelete:
		o1, d1 := p.slab.Delete(op.k)
		o2, d2 := p.ref.Delete(op.k)
		if o1 != o2 || d1 != d2 {
			return 0, fmt.Errorf("Delete(%x) = %d,%v; reference %d,%v", op.k, o1, d1, o2, d2)
		}
		delete(p.addrs, string(op.k))
	case opRef, opRefSet:
		ptr := p.slab.Ref(op.k)
		v2, ok2 := p.ref.Get(op.k)
		if ptr == nil {
			if ok2 {
				return 0, fmt.Errorf("Ref(%x) = nil; reference holds %d", op.k, v2)
			}
			break
		}
		if !ok2 || *ptr != v2 {
			return 0, fmt.Errorf("Ref(%x) -> %d; reference %d,%v", op.k, *ptr, v2, ok2)
		}
		// The value stays where it was first stored until its key is deleted.
		if was, ok := p.addrs[string(op.k)]; ok && was != ptr {
			return 0, fmt.Errorf("Ref(%x) = %p, an earlier Ref returned %p", op.k, ptr, was)
		}
		p.addrs[string(op.k)] = ptr
		if op.kind == opRefSet {
			*ptr = op.v
			p.ref.Set(op.k, op.v)
		}
	case opGet:
		v1, ok1 := p.slab.Get(op.k)
		v2, ok2 := p.ref.Get(op.k)
		if v1 != v2 || ok1 != ok2 {
			return 0, fmt.Errorf("Get(%x) = %d,%v; reference %d,%v", op.k, v1, ok1, v2, ok2)
		}
	case opRange:
		b := p.buf
		b.slabKeys, b.slabVals = collect(p.slab.AscendRange, op.lo, op.hi, op.stop, b.slabKeys, b.slabVals)
		b.refKeys, b.refVals = collect(p.ref.AscendRange, op.lo, op.hi, op.stop, b.refKeys, b.refVals)
		if !b.same() {
			return 0, fmt.Errorf("AscendRange(%x, %x, stop %d) = %x %v; reference %x %v",
				op.lo, op.hi, op.stop, b.slabKeys, b.slabVals, b.refKeys, b.refVals)
		}
	case opMin, opMax:
		k1, v1, ok1 := p.slab.Min()
		k2, v2, ok2 := p.ref.Min()
		if op.kind == opMax {
			k1, v1, ok1 = p.slab.Max()
			k2, v2, ok2 = p.ref.Max()
		}
		if !bytes.Equal(k1, k2) || v1 != v2 || ok1 != ok2 {
			return 0, fmt.Errorf("Min/Max(%d) = %x,%d,%v; reference %x,%d,%v", op.kind, k1, v1, ok1, k2, v2, ok2)
		}
	}
	if p.slab.Len() != p.ref.Len() {
		return 0, fmt.Errorf("Len = %d; reference %d", p.slab.Len(), p.ref.Len())
	}
	b := p.buf
	b.slabKeys, b.slabVals = collect(p.slab.AscendRange, nil, nil, 0, b.slabKeys, b.slabVals)
	b.refKeys, b.refVals = collect(p.ref.AscendRange, nil, nil, 0, b.refKeys, b.refVals)
	if !b.same() {
		return 0, fmt.Errorf("contents differ: %d keys, reference %d", len(b.slabKeys), len(b.refKeys))
	}
	return checkBTree(p.slab)
}

// collect appends what a range scan visits to keys[:0] and vals[:0].
func collect(asc func(lo, hi Key, fn func(Key, int) bool), lo, hi Key, stop int, keys []Key, vals []int) ([]Key, []int) {
	keys, vals = keys[:0], vals[:0]
	asc(lo, hi, func(k Key, v int) bool {
		keys, vals = append(keys, k), append(vals, v)
		return stop == 0 || len(keys) < stop
	})
	return keys, vals
}

// checkBTree re-derives the slab tree's invariants and returns its height:
// key counts within the degree bounds, strictly ascending keys that respect
// their separators, every leaf at one depth, every key inside its node
// prefix with the abbreviation that prefix implies, leaves without children,
// every slab node either reachable or on the free list, and the value slab's
// invariant (see checkValueRefs).
func checkBTree(t *BTree[int]) (int, error) {
	if t.root == 0 {
		if t.size != 0 || t.used != 0 {
			return 0, fmt.Errorf("no root, size %d, %d nodes used", t.size, t.used)
		}
		return 0, checkValueRefs(t, nil)
	}
	leafDepth, keys, nodes := -1, 0, 0
	var live []int32
	var walk func(r int32, depth int, lo, hi []byte) error
	walk = func(r int32, depth int, lo, hi []byte) error {
		nodes++
		n := t.node(r)
		cnt := int(n.n)
		if cnt > btreeMaxKeys || (r != t.root && cnt < btreeMinKeys) {
			return fmt.Errorf("node %d holds %d keys", r, cnt)
		}
		keys += cnt
		for i := range cnt {
			live = append(live, n.ents[i].v)
		}
		var prefix []byte
		if cnt > 0 {
			if int(n.plen) > len(t.key(n.ents[0])) {
				return fmt.Errorf("node %d: prefix %d longer than its first key", r, n.plen)
			}
			prefix = t.key(n.ents[0])[:n.plen]
		}
		prev := lo
		for i := range cnt {
			k := t.key(n.ents[i])
			if !bytes.HasPrefix(k, prefix) {
				return fmt.Errorf("node %d key %d %x outside prefix %x", r, i, k, prefix)
			}
			if a := abbrev(k, int(n.plen)); n.abbr[i] != a {
				return fmt.Errorf("node %d key %d %x: abbreviation %x, want %x", r, i, k, n.abbr[i], a)
			}
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				return fmt.Errorf("node %d key %d %x not above %x", r, i, k, prev)
			}
			prev = k
		}
		if hi != nil && prev != nil && bytes.Compare(prev, hi) >= 0 {
			return fmt.Errorf("node %d last key %x not below separator %x", r, prev, hi)
		}
		if n.leaf() {
			for i := range cnt + 1 {
				if n.kids[i] != 0 {
					return fmt.Errorf("leaf %d has child %d", r, n.kids[i])
				}
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if leafDepth != depth {
				return fmt.Errorf("leaf %d at depth %d, others at %d", r, depth, leafDepth)
			}
			return nil
		}
		for i := range cnt + 1 {
			clo, chi := lo, hi
			if i > 0 {
				clo = t.key(n.ents[i-1])
			}
			if i < cnt {
				chi = t.key(n.ents[i])
			}
			if n.kids[i] == 0 {
				return fmt.Errorf("internal node %d lacks child %d", r, i)
			}
			if err := walk(n.kids[i], depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 0, nil, nil); err != nil {
		return 0, err
	}
	if keys != t.size {
		return 0, fmt.Errorf("%d keys reachable, size %d", keys, t.size)
	}
	free := 0
	for r := t.free; r != 0; r = t.node(r).kids[0] {
		free++
	}
	if nodes+free != int(t.used) {
		return 0, fmt.Errorf("%d nodes reachable + %d free != %d used", nodes, free, t.used)
	}
	return leafDepth + 1, checkValueRefs(t, live)
}

// checkValueRefs checks the value slab against the value references live,
// those of every reachable slot: as many live references as keys, none in
// two slots, none also on the free list, every reference handed out either
// live or free, and every free slab slot zeroed (so that the slab keeps no
// deleted row reachable).
func checkValueRefs(t *BTree[int], live []int32) error {
	if len(live) != t.Len() {
		return fmt.Errorf("%d live value references, Len %d", len(live), t.Len())
	}
	owner := make([]string, t.vused)
	claim := func(v int32, by string) error {
		if v < 0 || v >= t.vused {
			return fmt.Errorf("value reference %d (%s) outside the %d handed out", v, by, t.vused)
		}
		if owner[v] != "" {
			return fmt.Errorf("value reference %d is on %s and on %s", v, owner[v], by)
		}
		owner[v] = by
		return nil
	}
	for _, v := range live {
		if err := claim(v, "a slot"); err != nil {
			return err
		}
	}
	for _, v := range t.vfree {
		if err := claim(v, "the free list"); err != nil {
			return err
		}
		if *t.val(v) != 0 {
			return fmt.Errorf("free value reference %d still holds %d", v, *t.val(v))
		}
	}
	if n := len(live) + len(t.vfree); n != int(t.vused) {
		return fmt.Errorf("%d live + %d free value references != %d handed out", len(live), len(t.vfree), t.vused)
	}
	return nil
}

// btreeKeyspaces generate keys for the differential scripts from an id:
// single-column ints, (int, string) composites, strings sharing a 21-byte
// prefix (so neither a node prefix nor an abbreviation alone can order them)
// and raw bytes over a small alphabet whose lengths vary (so the zero padding
// of an abbreviation meets real zero bytes).
var btreeKeyspaces = map[string]func(id int) Key{
	"int": func(id int) Key { return IntKey(int64(id) - 300) },
	"composite": func(id int) Key {
		return EncodeKey(Int(int64(id%7)), Str(fmt.Sprintf("c%d", id)))
	},
	"shared-prefix": func(id int) Key {
		return EncodeKey(Str(fmt.Sprintf("customer-name-prefix%05d", id)))
	},
	"raw": func(id int) Key {
		k := make(Key, id%11)
		for i := range k {
			k[i] = []byte{0x00, 0x01, 0x7F, 0xFF}[(id>>(2*i))&3]
		}
		return k
	},
}

// randomBTreeScript returns n operations over ids in [0, space): a growing
// phase of mostly inserts, then a shrinking phase of mostly deletes of live
// keys, so the tree passes three levels and shrinks back through every
// borrow and merge case and a root collapse.
func randomBTreeScript(r *rand.Rand, key func(int) Key, space, n int) []btreeOp {
	ops := make([]btreeOp, 0, n)
	var live []int
	forks := 1
	for i := range n {
		grow := i < n*6/10
		op := btreeOp{k: key(r.Intn(space)), v: i}
		if r.Intn(4) == 0 {
			op.pair = r.Intn(forks) // forks see a quarter of the script
		}
		x := r.Intn(100)
		switch {
		case x < 75:
			op.kind = opSet
			if !grow {
				op.kind = opDelete
			}
		case x < 82:
			op.kind = opDelete
			if !grow {
				op.kind = opSet
			}
		case x < 84:
			op.kind = opGet
		case x < 86:
			op.kind = opRef
		case x < 88:
			op.kind = opRefSet
		case x < 95:
			op.kind = opRange
			if r.Intn(4) > 0 {
				op.lo = key(r.Intn(space))
			}
			if r.Intn(4) > 0 {
				op.hi = key(r.Intn(space))
			}
			if r.Intn(2) == 0 {
				op.stop = 1 + r.Intn(20)
			}
		case x < 97:
			op.kind = opMin
		case x < 99 || forks == 4:
			op.kind = opMax
		default:
			op.kind = opFork
			forks++
		}
		switch op.kind {
		case opSet:
			id := r.Intn(space)
			op.k = key(id)
			live = append(live, id)
		case opDelete, opGet, opRef, opRefSet:
			if len(live) > 0 && r.Intn(10) > 0 {
				j := r.Intn(len(live))
				op.k = key(live[j])
				if op.kind == opDelete {
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			}
		}
		ops = append(ops, op)
	}
	return ops
}

// runBTreeScript drives ops through a fresh pair (and the pairs opFork
// forks from it), returning the greatest height the slab tree reached and
// the first disagreement.
func runBTreeScript(ops []btreeOp) (int, error) {
	pairs := []btreePair{newBTreePair()}
	height := 0
	for i, op := range ops {
		p := pairs[op.pair%len(pairs)]
		if op.kind == opFork {
			pairs = append(pairs, p.fork())
			p = pairs[len(pairs)-1]
		}
		h, err := p.apply(op)
		if err != nil {
			return height, fmt.Errorf("step %d (op %d on fork %d): %w", i, op.kind, op.pair%len(pairs), err)
		}
		height = max(height, h)
	}
	// Every fork must still hold what its own reference holds.
	for i, p := range pairs {
		if _, err := p.apply(btreeOp{kind: opGet}); err != nil {
			return height, fmt.Errorf("fork %d at the end: %w", i, err)
		}
	}
	return height, nil
}

// TestSlabBTreeMatchesReference runs a seeded script over every keyspace
// against refBTree, comparing every return value, the length, the in-order
// contents and the node and value-slab invariants after each step, on the
// tree and on clones that diverge from it. Reads and writes through Ref
// must see and change what Get and Set on the reference do, at an address
// that does not move while its key stays in the tree.
func TestSlabBTreeMatchesReference(t *testing.T) {
	space, n, minHeight := 20000, 10000, 3
	if testing.Short() {
		space, n, minHeight = 2000, 1500, 2
	}
	for name, key := range btreeKeyspaces {
		ops := randomBTreeScript(rand.New(rand.NewSource(int64(len(name)))), key, space, n)
		height, err := runBTreeScript(ops)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "raw" && height < minHeight {
			t.Errorf("%s: the tree reached height %d, want %d", name, height, minHeight)
		}
	}
}

// FuzzBTreeOps decodes a byte script into tree operations over raw keys and
// checks the slab tree against refBTree after every one. Each operation
// takes two bytes: the kind (and the fork it runs on) and a key id; keys are
// raw bytes over a small alphabet, so prefixes, ties and zero padding meet.
func FuzzBTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 2, 2, 1, 2, 3, 0, 4, 0, 5, 0})
	f.Add(bytes.Repeat([]byte{0, 7, 0, 200, 0, 13, 0, 99, 6, 0, 1, 7}, 40))
	seq := make([]byte, 0, 800)
	for i := range 250 {
		seq = append(seq, 0, byte(i))
	}
	for i := range 150 {
		seq = append(seq, 1, byte(i*7))
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, script []byte) {
		key := btreeKeyspaces["raw"]
		ops := make([]btreeOp, 0, len(script)/2)
		for i := 0; i+1 < len(script); i += 2 {
			b, id := script[i], int(script[i+1])*37
			op := btreeOp{kind: b % opKinds, pair: int(b / opKinds), k: key(id), v: i}
			if op.kind == opRange {
				op.lo, op.hi, op.stop = key(id), key(int(b)*53), id%5
			}
			ops = append(ops, op)
		}
		if _, err := runBTreeScript(ops); err != nil {
			t.Fatal(err)
		}
	})
}
