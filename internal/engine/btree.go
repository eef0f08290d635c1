package engine

import "bytes"

// btreeDegree is the minimum degree t: nodes hold between t-1 and 2t-1 keys
// (except the root). 32 gives wide, shallow trees suited to in-memory use.
const btreeDegree = 32

const (
	btreeMaxKeys = 2*btreeDegree - 1
	btreeMinKeys = btreeDegree - 1
)

// BTree is an in-memory B-tree mapping memcomparable keys to values. It is
// the delta store under every table: written rows, tombstones, and replica
// overlays all live in B-trees. It follows the single-runnable discipline
// of the simulation and therefore needs no internal locking.
type BTree[V any] struct {
	root *btreeNode[V]
	size int
	// arena is the tail of the tree's append-only key storage: a leaf insert
	// copies the caller's key bytes here, so callers keep ownership of (and
	// may reuse) the buffer they passed. Keys are immutable once stored;
	// a chunk is collected when every key carved from it has left the tree.
	// An empty tree owns no chunk.
	arena []byte
}

// keyArenaChunk sizes one block of key storage (about 450 int keys).
const keyArenaChunk = 4 << 10

// ownKey copies k into the tree's key arena.
func (t *BTree[V]) ownKey(k []byte) []byte {
	t.arena = reserve(t.arena, len(k), keyArenaChunk)
	n := len(t.arena)
	t.arena = append(t.arena, k...)
	return t.arena[n:len(t.arena):len(t.arena)]
}

type btreeNode[V any] struct {
	keys     [][]byte
	vals     []V
	children []*btreeNode[V] // nil for leaves
}

func (n *btreeNode[V]) leaf() bool { return n.children == nil }

// find returns the index of the first key >= k and whether it equals k.
func (n *btreeNode[V]) find(k []byte) (int, bool) {
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

// NewBTree returns an empty tree.
func NewBTree[V any]() *BTree[V] {
	return &BTree[V]{root: &btreeNode[V]{}}
}

// Len returns the number of stored keys.
func (t *BTree[V]) Len() int { return t.size }

// Get returns the value stored under k.
func (t *BTree[V]) Get(k Key) (V, bool) {
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
func (t *BTree[V]) Set(k Key, v V) (old V, replaced bool) {
	if len(t.root.keys) == btreeMaxKeys {
		oldRoot := t.root
		t.root = &btreeNode[V]{children: []*btreeNode[V]{oldRoot}}
		t.splitChild(t.root, 0)
	}
	old, replaced = t.insertNonFull(t.root, k, v)
	if !replaced {
		t.size++
	}
	return old, replaced
}

// splitChild splits the full child at index i of parent.
func (t *BTree[V]) splitChild(parent *btreeNode[V], i int) {
	child := parent.children[i]
	mid := btreeMinKeys
	right := &btreeNode[V]{
		keys: append([][]byte(nil), child.keys[mid+1:]...),
		vals: append([]V(nil), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*btreeNode[V](nil), child.children[mid+1:]...)
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

func (t *BTree[V]) insertNonFull(n *btreeNode[V], k Key, v V) (old V, replaced bool) {
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
		if len(n.children[i].keys) == btreeMaxKeys {
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
func (t *BTree[V]) Delete(k Key) (old V, deleted bool) {
	old, deleted = t.delete(t.root, k)
	if deleted {
		t.size--
	}
	if len(t.root.keys) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	return old, deleted
}

func (t *BTree[V]) delete(n *btreeNode[V], k Key) (old V, deleted bool) {
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
		if len(left.keys) > btreeMinKeys {
			pk, pv := t.deleteMax(left)
			n.keys[i], n.vals[i] = pk, pv
			return old, true
		}
		right := n.children[i+1]
		if len(right.keys) > btreeMinKeys {
			sk, sv := t.deleteMin(right)
			n.keys[i], n.vals[i] = sk, sv
			return old, true
		}
		t.mergeChildren(n, i)
		return t.deleteDescend(n, i, k, old)
	}
	// Ensure the child we descend into has > minKeys.
	if len(n.children[i].keys) <= btreeMinKeys {
		i = t.fill(n, i)
	}
	return t.delete(n.children[i], k)
}

// deleteDescend finishes a merged-case deletion: the key now lives in
// children[i] after mergeChildren.
func (t *BTree[V]) deleteDescend(n *btreeNode[V], i int, k Key, old V) (V, bool) {
	_, del := t.delete(n.children[i], k)
	if !del {
		panic("engine: btree lost key during merge delete")
	}
	return old, true
}

func (t *BTree[V]) deleteMax(n *btreeNode[V]) ([]byte, V) {
	for {
		if n.leaf() {
			last := len(n.keys) - 1
			k, v := n.keys[last], n.vals[last]
			n.keys = n.keys[:last]
			n.vals = n.vals[:last]
			return k, v
		}
		i := len(n.children) - 1
		if len(n.children[i].keys) <= btreeMinKeys {
			i = t.fill(n, i)
			// fill may merge; recompute rightmost path
			if i >= len(n.children) {
				i = len(n.children) - 1
			}
		}
		n = n.children[i]
	}
}

func (t *BTree[V]) deleteMin(n *btreeNode[V]) ([]byte, V) {
	for {
		if n.leaf() {
			k, v := n.keys[0], n.vals[0]
			n.keys = append(n.keys[:0], n.keys[1:]...)
			n.vals = append(n.vals[:0], n.vals[1:]...)
			return k, v
		}
		if len(n.children[0].keys) <= btreeMinKeys {
			t.fill(n, 0)
		}
		n = n.children[0]
	}
}

// fill ensures children[i] has more than minKeys, borrowing from a sibling
// or merging. It returns the (possibly shifted) child index to descend into.
func (t *BTree[V]) fill(n *btreeNode[V], i int) int {
	if i > 0 && len(n.children[i-1].keys) > btreeMinKeys {
		t.borrowFromLeft(n, i)
		return i
	}
	if i < len(n.children)-1 && len(n.children[i+1].keys) > btreeMinKeys {
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

func (t *BTree[V]) borrowFromLeft(n *btreeNode[V], i int) {
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

func (t *BTree[V]) borrowFromRight(n *btreeNode[V], i int) {
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
func (t *BTree[V]) mergeChildren(n *btreeNode[V], i int) {
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
func (t *BTree[V]) AscendRange(lo, hi Key, fn func(k Key, v V) bool) {
	t.ascend(t.root, lo, hi, fn)
}

func (t *BTree[V]) ascend(n *btreeNode[V], lo, hi Key, fn func(k Key, v V) bool) bool {
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
func (t *BTree[V]) Min() (Key, V, bool) {
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
func (t *BTree[V]) Max() (Key, V, bool) {
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
