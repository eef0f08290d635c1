package storage

import (
	"math"
	"math/bits"
	"slices"
)

// BufferPool is an LRU page cache with dirty-page tracking. It runs inside
// the simulation's single-runnable discipline, so it needs no locking.
//
// The pool stores page *residency*, not page bytes: Pin answers "was this a
// hit?", and the caller (a database node) charges the appropriate I/O and
// network delays on a miss before calling Admit. Dirty tracking drives the
// ARIES-style engines' flush-on-evict and checkpoint behaviour, which the
// paper identifies as RDS's bottleneck under write-heavy load (§III-B).
//
// All state is two flat slices and a few scalars (DESIGN.md §15 "The buffer
// pool is flat"): a slab of frames linked into the recency order by frame
// references, and an open-addressed index from PageID to frame reference.
// A frame reference is the frame's slab position plus one, so that 0 means
// "none" everywhere — in a link, in an index slot, and in the zero
// BufferPool and BufSnapshot, which are valid empty pools. Steady state
// allocates nothing: an eviction frees the slot the admission takes.
type BufferPool struct {
	capacity int // max resident pages; 0 means nothing fits

	// frames is the slab. A resident frame is on the recency chain
	// head … tail (prev/next); a freed frame is on the free chain (next
	// only). Nothing else is ever in frames[:len(frames)].
	frames []frame
	// index is the open-addressed page index: len is zero or a power of
	// two at least twice the resident count, each slot holds a frame
	// reference or 0, and every resident page sits at or after its home
	// slot (hashPage & mask) with no empty slot in between.
	index []int32

	head, tail int32 // most / least recently used resident frame
	free       int32 // first freed frame
	n          int   // resident pages
	dirty      int   // resident dirty pages

	hits    int64
	misses  int64
	evicted int64
	flushed int64 // dirty pages written back (on evict or checkpoint)
}

// frame is one slab slot: a resident page with its recency links, or a
// freed slot whose next is the rest of the free chain.
type frame struct {
	id         PageID
	prev, next int32 // towards head / towards tail
	dirty      bool
}

// maxPoolPages is the largest capacity a frame reference can address.
const maxPoolPages = math.MaxInt32

func checkedCapacity(capacity int) int {
	if capacity < 0 {
		return 0
	}
	if capacity > maxPoolPages {
		panic("storage: buffer pool capacity above 2^31-1 pages")
	}
	return capacity
}

// NewBufferPool returns a pool that holds at most capacity pages. Memory
// follows the resident count, not capacity: a 24 GiB pool that has seen a
// thousand pages costs a thousand frames.
func NewBufferPool(capacity int) *BufferPool {
	return &BufferPool{capacity: checkedCapacity(capacity)}
}

// NewBufferPoolBytes returns a pool sized to hold bytes/PageSize pages.
func NewBufferPoolBytes(bytes int64) *BufferPool {
	return NewBufferPool(int(bytes / PageSize))
}

// Capacity returns the maximum number of resident pages.
func (b *BufferPool) Capacity() int { return b.capacity }

// Len returns the number of currently resident pages.
func (b *BufferPool) Len() int { return b.n }

// Contains reports residency without touching recency or stats.
func (b *BufferPool) Contains(id PageID) bool {
	_, r := b.find(id)
	return r != 0
}

// hashPage mixes a page identity into 64 well-spread bits. Page numbers are
// dense and sequential, so the low bits must depend on all of Num and Table.
// It is a fixed function — no per-process seed — so probe sequences, and
// with them host-side cost, repeat from run to run.
func hashPage(id PageID) uint64 {
	h := id.Num ^ uint64(id.Table)*0x9E3779B97F4A7C15
	h ^= h >> 32
	h *= 0xD6E8FEB86659FD93
	h ^= h >> 32
	return h
}

// find probes the index for id. It returns the slot that holds id's frame
// reference, or, when id is not resident, the empty slot that ends its
// probe sequence with r == 0. With no index yet, slot is -1.
func (b *BufferPool) find(id PageID) (slot int, r int32) {
	mask := len(b.index) - 1
	if mask < 0 {
		return -1, 0
	}
	for slot = int(hashPage(id)) & mask; ; slot = (slot + 1) & mask {
		r = b.index[slot]
		if r == 0 || b.frames[r-1].id == id {
			return slot, r
		}
	}
}

// unindex empties an occupied slot by backward-shift deletion: each later
// entry of the same probe run moves into the hole unless its home slot lies
// after the hole, so no tombstone is left and probes never lengthen however
// long the pool churns.
func (b *BufferPool) unindex(slot int) {
	mask := len(b.index) - 1
	hole := slot
	for j := (slot + 1) & mask; b.index[j] != 0; j = (j + 1) & mask {
		home := int(hashPage(b.frames[b.index[j]-1].id)) & mask
		if (j-home)&mask >= (j-hole)&mask {
			b.index[hole] = b.index[j]
			hole = j
		}
	}
	b.index[hole] = 0
}

// unlink takes a resident frame off the recency chain.
func (b *BufferPool) unlink(r int32) {
	f := &b.frames[r-1]
	if f.prev != 0 {
		b.frames[f.prev-1].next = f.next
	} else {
		b.head = f.next
	}
	if f.next != 0 {
		b.frames[f.next-1].prev = f.prev
	} else {
		b.tail = f.prev
	}
}

// pushFront links a frame in as most recently used.
func (b *BufferPool) pushFront(r int32) {
	f := &b.frames[r-1]
	f.prev, f.next = 0, b.head
	if b.head != 0 {
		b.frames[b.head-1].prev = r
	} else {
		b.tail = r
	}
	b.head = r
}

// touch makes a resident frame the most recently used.
func (b *BufferPool) touch(r int32) {
	if b.head != r {
		b.unlink(r)
		b.pushFront(r)
	}
}

// drop removes the resident page in index slot `slot` (frame r) and puts
// its frame first on the free chain. It reports whether the page was dirty.
func (b *BufferPool) drop(slot int, r int32) (id PageID, dirty bool) {
	f := &b.frames[r-1]
	id, dirty = f.id, f.dirty
	b.unindex(slot)
	b.unlink(r)
	*f = frame{next: b.free}
	b.free = r
	b.n--
	if dirty {
		b.dirty--
	}
	return id, dirty
}

// evict drops the resident page in frame r, counting the eviction and, for
// a dirty page, its writeback.
func (b *BufferPool) evict(r int32) (id PageID, dirty bool) {
	slot, _ := b.find(b.frames[r-1].id)
	id, dirty = b.drop(slot, r)
	b.evicted++
	if dirty {
		b.flushed++
	}
	return id, dirty
}

// grow makes room for one more resident page when the slab has no spare
// slot or the index would pass half full. Both double, so they follow the
// resident high-water mark and never the capacity; the slab stops at
// capacity, which is all it can ever need. Kept out of line so that Admit
// carries no allocation.
//
//detlint:coldpath
//go:noinline
func (b *BufferPool) grow() {
	if b.free == 0 && len(b.frames) == cap(b.frames) {
		b.frames = slices.Grow(b.frames, min(max(len(b.frames), 16), b.capacity-len(b.frames)))
	}
	if 2*(b.n+1) > len(b.index) {
		b.reindex(max(2*len(b.index), 32))
	}
}

// reindex replaces the index with an empty one of size slots (a power of
// two) and re-enters every resident page, most recently used first.
func (b *BufferPool) reindex(size int) {
	b.index = make([]int32, size)
	for r := b.head; r != 0; r = b.frames[r-1].next {
		slot, _ := b.find(b.frames[r-1].id)
		b.index[slot] = r
	}
}

// Reserve sizes the slab and the index for pages resident pages (at most the
// capacity) in one step, so that filling an empty pool with that many grows
// neither again: a pre-warm pays one allocation each instead of one per
// doubling. Residency, recency order and every counter stay as they are;
// only the index layout, and with it the host's probe paths, can change.
func (b *BufferPool) Reserve(pages int) {
	pages = min(pages, b.capacity)
	if pages <= 0 {
		return
	}
	if cap(b.frames) < pages {
		b.frames = slices.Grow(b.frames, pages-len(b.frames))
	}
	if size := max(32, 1<<bits.Len(uint(2*pages-1))); size > len(b.index) {
		b.reindex(size)
	}
}

// Pin records an access to the page and reports whether it was resident
// (hit). On a miss the caller should pay its architecture's fetch cost and
// then call Admit.
//
//detlint:hotpath
func (b *BufferPool) Pin(id PageID) bool {
	if _, r := b.find(id); r != 0 {
		b.touch(r)
		b.hits++
		return true
	}
	b.misses++
	return false
}

// Admit inserts the page as most recently used, evicting the LRU page if
// the pool is full. It returns the evicted page and whether the evicted
// page was dirty (requiring writeback in ARIES-style engines). If nothing
// was evicted, ok is false.
//
//detlint:hotpath
func (b *BufferPool) Admit(id PageID) (evicted PageID, dirty, ok bool) {
	if b.capacity == 0 {
		return PageID{}, false, false
	}
	if _, r := b.find(id); r != 0 {
		b.touch(r)
		return PageID{}, false, false
	}
	for b.n >= b.capacity {
		evicted, dirty = b.evict(b.tail)
		ok = true
	}
	if b.free == 0 && len(b.frames) == cap(b.frames) || 2*(b.n+1) > len(b.index) {
		b.grow()
	}
	r := b.free
	if r != 0 {
		b.free = b.frames[r-1].next
	} else {
		b.frames = b.frames[:len(b.frames)+1]
		r = int32(len(b.frames))
	}
	b.frames[r-1] = frame{id: id} // a slot past a truncated slab is stale
	b.pushFront(r)
	slot, _ := b.find(id)
	b.index[slot] = r
	b.n++
	return evicted, dirty, ok
}

// MarkDirty flags a resident page as modified. Non-resident pages are
// ignored (the write went straight through).
//
//detlint:hotpath
func (b *BufferPool) MarkDirty(id PageID) {
	if _, r := b.find(id); r != 0 && !b.frames[r-1].dirty {
		b.frames[r-1].dirty = true
		b.dirty++
	}
}

// DirtyCount returns the number of resident dirty pages.
func (b *BufferPool) DirtyCount() int { return b.dirty }

// DirtyPages returns the resident dirty pages in LRU order (MRU first) —
// the dirty-page table a fuzzy checkpoint records. The order follows the
// recency chain, so it is deterministic for a deterministic access history.
func (b *BufferPool) DirtyPages() []PageID {
	if b.dirty == 0 {
		return nil
	}
	out := make([]PageID, 0, b.dirty)
	for r := b.head; len(out) < b.dirty; r = b.frames[r-1].next {
		if f := &b.frames[r-1]; f.dirty {
			out = append(out, f.id)
		}
	}
	return out
}

// FlushAll clears all dirty flags, returning how many pages were flushed.
// Checkpointing engines pay writeback I/O for each.
func (b *BufferPool) FlushAll() int {
	n := b.dirty
	for r := b.head; b.dirty > 0; r = b.frames[r-1].next {
		if f := &b.frames[r-1]; f.dirty {
			f.dirty = false
			b.dirty--
		}
	}
	b.flushed += int64(n)
	return n
}

// Invalidate drops the page if resident (cache-coherency protocol of the
// memory-disaggregated architecture). It reports whether the page was
// resident.
//
//detlint:hotpath
func (b *BufferPool) Invalidate(id PageID) bool {
	slot, r := b.find(id)
	if r == 0 {
		return false
	}
	b.drop(slot, r)
	return true
}

// Clear empties the pool (node restart: cache is lost). The slab and the
// index keep their memory for the pages that come back.
func (b *BufferPool) Clear() {
	b.frames = b.frames[:0]
	clear(b.index)
	b.head, b.tail, b.free = 0, 0, 0
	b.n, b.dirty = 0, 0
}

// DropEvery is the chaos-injection hook for partial cache loss: it evicts
// every n-th resident page in LRU order (n <= 1 empties the pool), modeling
// an eviction storm or a degraded page-cache tier without the full cold
// start of Clear. Dropped dirty pages are counted as flushed — the damage
// model assumes the writeback happened before the loss, so no updates are
// lost (chaos must perturb performance, never correctness). It returns the
// number of pages dropped. Iteration follows the recency chain, so the
// selection is deterministic for a deterministic access history.
func (b *BufferPool) DropEvery(n int) int {
	if n <= 1 {
		dropped := b.n
		b.evicted += int64(dropped)
		b.flushed += int64(b.dirty)
		b.Clear()
		return dropped
	}
	dropped := 0
	i := 0
	for r := b.head; r != 0; i++ {
		next := b.frames[r-1].next
		if i%n == 0 {
			b.evict(r)
			dropped++
		}
		r = next
	}
	return dropped
}

// Resize changes capacity, evicting LRU pages if shrinking. Serverless
// engines resize the buffer when memory scales. Returns the number of
// dirty pages evicted (requiring writeback).
func (b *BufferPool) Resize(capacity int) int {
	b.capacity = checkedCapacity(capacity)
	dirtyEvicted := 0
	for b.n > b.capacity {
		if _, dirty := b.evict(b.tail); dirty {
			dirtyEvicted++
		}
	}
	return dirtyEvicted
}

// BufSnapshot is a point-in-time capture of a BufferPool: residency and
// recency order, dirty flags, capacity, and cumulative stats (warm-up
// memoization). It owns its two slices: Snapshot copies them out of the
// pool and Restore copies them into the restored pool's own memory, so a
// snapshot is never written after it is taken and may be restored any
// number of times.
type BufSnapshot struct {
	state BufferPool
}

// Snapshot captures the pool's current state.
func (b *BufferPool) Snapshot() BufSnapshot {
	s := BufSnapshot{state: *b}
	s.state.frames = slices.Clone(b.frames)
	s.state.index = slices.Clone(b.index)
	return s
}

// Restore resets the pool to a snapshot by copying the snapshot's slab and
// index into the pool's own slices (reused when large enough), so that
// pools restored from the same snapshot evolve independently.
func (b *BufferPool) Restore(snap BufSnapshot) {
	frames, index := b.frames, b.index
	*b = snap.state
	b.frames = append(frames[:0], snap.state.frames...)
	b.index = append(index[:0], snap.state.index...)
}

// Stats returns cumulative hit/miss/eviction/flush counts.
func (b *BufferPool) Stats() (hits, misses, evicted, flushed int64) {
	return b.hits, b.misses, b.evicted, b.flushed
}

// HitRatio returns hits/(hits+misses), or 0 with no accesses.
func (b *BufferPool) HitRatio() float64 {
	total := b.hits + b.misses
	if total == 0 {
		return 0
	}
	return float64(b.hits) / float64(total)
}
