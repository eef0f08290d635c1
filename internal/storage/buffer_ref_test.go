package storage

import (
	"container/list"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// listPool is the container/list buffer pool that BufferPool replaced,
// kept verbatim as the oracle for TestFlatPoolMatchesListReference: a map
// from page to list element and a doubly linked recency list, two heap
// objects per resident page. It defines the semantics the flat pool must
// reproduce — recency order, eviction victim, MRU-first DirtyPages and
// DropEvery, every counter — and is not built into the product.
type listPool struct {
	capacity int // max resident pages; 0 means nothing fits
	pages    map[PageID]*list.Element
	lru      *list.List // front = most recently used

	hits    int64
	misses  int64
	evicted int64
	flushed int64 // dirty pages written back (on evict or checkpoint)
}

type bufEntry struct {
	id    PageID
	dirty bool
}

// newListPool returns a pool that holds at most capacity pages.
func newListPool(capacity int) *listPool {
	if capacity < 0 {
		capacity = 0
	}
	return &listPool{
		capacity: capacity,
		pages:    make(map[PageID]*list.Element),
		lru:      list.New(),
	}
}

// Capacity returns the maximum number of resident pages.
func (b *listPool) Capacity() int { return b.capacity }

// Len returns the number of currently resident pages.
func (b *listPool) Len() int { return b.lru.Len() }

// Contains reports residency without touching recency or stats.
func (b *listPool) Contains(id PageID) bool {
	_, ok := b.pages[id]
	return ok
}

// Pin records an access to the page and reports whether it was resident
// (hit). On a miss the caller should pay its architecture's fetch cost and
// then call Admit.
func (b *listPool) Pin(id PageID) bool {
	if el, ok := b.pages[id]; ok {
		b.lru.MoveToFront(el)
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
func (b *listPool) Admit(id PageID) (evicted PageID, dirty, ok bool) {
	if b.capacity == 0 {
		return PageID{}, false, false
	}
	if el, exists := b.pages[id]; exists {
		b.lru.MoveToFront(el)
		return PageID{}, false, false
	}
	for b.lru.Len() >= b.capacity {
		back := b.lru.Back()
		ent := back.Value.(*bufEntry)
		b.lru.Remove(back)
		delete(b.pages, ent.id)
		b.evicted++
		evicted, dirty, ok = ent.id, ent.dirty, true
		if dirty {
			b.flushed++
		}
	}
	b.pages[id] = b.lru.PushFront(&bufEntry{id: id})
	return evicted, dirty, ok
}

// MarkDirty flags a resident page as modified. Non-resident pages are
// ignored (the write went straight through).
func (b *listPool) MarkDirty(id PageID) {
	if el, ok := b.pages[id]; ok {
		el.Value.(*bufEntry).dirty = true
	}
}

// DirtyCount returns the number of resident dirty pages.
func (b *listPool) DirtyCount() int {
	n := 0
	for el := b.lru.Front(); el != nil; el = el.Next() {
		if el.Value.(*bufEntry).dirty {
			n++
		}
	}
	return n
}

// DirtyPages returns the resident dirty pages in LRU order (MRU first) —
// the dirty-page table a fuzzy checkpoint records. The order follows the
// LRU list, so it is deterministic for a deterministic access history.
func (b *listPool) DirtyPages() []PageID {
	var out []PageID
	for el := b.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*bufEntry)
		if ent.dirty {
			out = append(out, ent.id)
		}
	}
	return out
}

// FlushAll clears all dirty flags, returning how many pages were flushed.
// Checkpointing engines pay writeback I/O for each.
func (b *listPool) FlushAll() int {
	n := 0
	for el := b.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*bufEntry)
		if ent.dirty {
			ent.dirty = false
			n++
		}
	}
	b.flushed += int64(n)
	return n
}

// Invalidate drops the page if resident (cache-coherency protocol of the
// memory-disaggregated architecture). It reports whether the page was
// resident.
func (b *listPool) Invalidate(id PageID) bool {
	el, ok := b.pages[id]
	if !ok {
		return false
	}
	b.lru.Remove(el)
	delete(b.pages, id)
	return true
}

// Clear empties the pool (node restart: cache is lost).
func (b *listPool) Clear() {
	b.pages = make(map[PageID]*list.Element)
	b.lru.Init()
}

// DropEvery is the chaos-injection hook for partial cache loss: it evicts
// every n-th resident page in LRU order (n <= 1 empties the pool), modeling
// an eviction storm or a degraded page-cache tier without the full cold
// start of Clear. Dropped dirty pages are counted as flushed — the damage
// model assumes the writeback happened before the loss, so no updates are
// lost (chaos must perturb performance, never correctness). It returns the
// number of pages dropped. Iteration follows the LRU list, so the selection
// is deterministic for a deterministic access history.
func (b *listPool) DropEvery(n int) int {
	if n <= 1 {
		dropped := b.lru.Len()
		for el := b.lru.Front(); el != nil; el = el.Next() {
			if el.Value.(*bufEntry).dirty {
				b.flushed++
			}
		}
		b.evicted += int64(dropped)
		b.Clear()
		return dropped
	}
	dropped := 0
	i := 0
	for el := b.lru.Front(); el != nil; {
		next := el.Next()
		if i%n == 0 {
			ent := el.Value.(*bufEntry)
			b.lru.Remove(el)
			delete(b.pages, ent.id)
			b.evicted++
			if ent.dirty {
				b.flushed++
			}
			dropped++
		}
		i++
		el = next
	}
	return dropped
}

// Resize changes capacity, evicting LRU pages if shrinking. Serverless
// engines resize the buffer when memory scales. Returns the number of
// dirty pages evicted (requiring writeback).
func (b *listPool) Resize(capacity int) int {
	if capacity < 0 {
		capacity = 0
	}
	b.capacity = capacity
	dirtyEvicted := 0
	for b.lru.Len() > b.capacity {
		back := b.lru.Back()
		ent := back.Value.(*bufEntry)
		b.lru.Remove(back)
		delete(b.pages, ent.id)
		b.evicted++
		if ent.dirty {
			b.flushed++
			dirtyEvicted++
		}
	}
	return dirtyEvicted
}

// listSnapshot is a point-in-time capture of a listPool: residency and
// recency order, dirty flags, capacity, and cumulative stats (warm-up
// memoization).
type listSnapshot struct {
	capacity int
	entries  []bufEntry // MRU first
	hits     int64
	misses   int64
	evicted  int64
	flushed  int64
}

// Snapshot captures the pool's current state.
func (b *listPool) Snapshot() listSnapshot {
	s := listSnapshot{
		capacity: b.capacity,
		hits:     b.hits, misses: b.misses, evicted: b.evicted, flushed: b.flushed,
	}
	for el := b.lru.Front(); el != nil; el = el.Next() {
		s.entries = append(s.entries, *el.Value.(*bufEntry))
	}
	return s
}

// Restore resets the pool to a snapshot, rebuilding the LRU list so that
// pools restored from the same snapshot evolve independently.
func (b *listPool) Restore(snap listSnapshot) {
	b.capacity = snap.capacity
	b.pages = make(map[PageID]*list.Element, len(snap.entries))
	b.lru.Init()
	for i := range snap.entries {
		ent := snap.entries[i]
		b.pages[ent.id] = b.lru.PushBack(&ent)
	}
	b.hits, b.misses, b.evicted, b.flushed = snap.hits, snap.misses, snap.evicted, snap.flushed
}

// Stats returns cumulative hit/miss/eviction/flush counts.
func (b *listPool) Stats() (hits, misses, evicted, flushed int64) {
	return b.hits, b.misses, b.evicted, b.flushed
}

// order returns the oracle's resident pages, MRU first.
func (b *listPool) order() []PageID {
	out := make([]PageID, 0, b.lru.Len())
	for el := b.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*bufEntry).id)
	}
	return out
}

// order returns the flat pool's resident pages, MRU first, after checking
// every structural invariant the pool's comments state: the recency chain
// is consistent in both directions and n long, resident plus freed frames
// are the whole slab, the index is a power of two at most half full with
// exactly one slot per resident page, and every page is reachable from its
// home slot. wrapped reports whether some page currently sits below its
// home slot, i.e. its probe run crosses the end of the table.
func (b *BufferPool) order(t *testing.T) (out []PageID, wrapped bool) {
	t.Helper()
	out = make([]PageID, 0, b.n)
	dirty := 0
	var prev int32
	for r := b.head; r != 0; r = b.frames[r-1].next {
		f := b.frames[r-1]
		if f.prev != prev {
			t.Fatalf("frame %d: prev = %d, want %d", r, f.prev, prev)
		}
		if slot, got := b.find(f.id); got != r {
			t.Fatalf("find(%v) = slot %d frame %d, want frame %d", f.id, slot, got, r)
		} else if slot < int(hashPage(f.id))&(len(b.index)-1) {
			wrapped = true
		}
		if f.dirty {
			dirty++
		}
		out = append(out, f.id)
		prev = r
		if len(out) > b.n {
			t.Fatalf("recency chain longer than n = %d", b.n)
		}
	}
	if b.tail != prev || len(out) != b.n || dirty != b.dirty {
		t.Fatalf("tail %d (walked to %d), n %d (walked %d), dirty %d (walked %d)", b.tail, prev, b.n, len(out), b.dirty, dirty)
	}
	freed := 0
	for r := b.free; r != 0; r = b.frames[r-1].next {
		if freed++; freed > len(b.frames) {
			t.Fatal("free chain loops")
		}
	}
	if b.n+freed != len(b.frames) {
		t.Fatalf("resident %d + freed %d != slab %d", b.n, freed, len(b.frames))
	}
	used := 0
	for _, r := range b.index {
		if r != 0 {
			used++
		}
	}
	if l := len(b.index); used != b.n || l&(l-1) != 0 || 2*b.n > l {
		t.Fatalf("index: %d slots used of %d for %d resident pages", used, l, b.n)
	}
	return out, wrapped
}

// TestFlatPoolMatchesListReference runs seeded random scripts against the
// flat pool and the list oracle in lockstep and requires every return
// value, every counter, residency and the full recency order to agree
// after every step. The page universe is a few times the capacity, so the
// pool churns through many full eviction cycles, and the small capacities
// keep the index at its 32-slot minimum, so probe runs wrap the table end
// and backward-shift deletion crosses it.
func TestFlatPoolMatchesListReference(t *testing.T) {
	steps := 20000
	if testing.Short() {
		steps = 4000
	}
	sawWrap := false
	for _, capacity := range []int{0, 1, 2, 7, 13, 64, 300} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(capacity)))
			flat, ref := NewBufferPool(capacity), newListPool(capacity)
			flatSnap, refSnap := flat.Snapshot(), ref.Snapshot()
			page := func() PageID {
				return PageID{Table: TableID(1 + rng.Intn(3)), Num: uint64(rng.Intn(capacity + 6))}
			}
			for step := 0; step < steps; step++ {
				id := page()
				var op string
				var got, want [3]any
				switch k := rng.Intn(1000); {
				case k < 400: // the node's access: Pin, and Admit on a miss
					op = "Pin+Admit"
					got[0], want[0] = flat.Pin(id), ref.Pin(id)
					if got[0] == false {
						ge, gd, gok := flat.Admit(id)
						we, wd, wok := ref.Admit(id)
						got[1], want[1] = [3]any{ge, gd, gok}, [3]any{we, wd, wok}
					}
				case k < 600:
					op = "Admit"
					ge, gd, gok := flat.Admit(id)
					we, wd, wok := ref.Admit(id)
					got[0], want[0] = [3]any{ge, gd, gok}, [3]any{we, wd, wok}
				case k < 800:
					op = "MarkDirty"
					flat.MarkDirty(id)
					ref.MarkDirty(id)
				case k < 940:
					op = "Invalidate"
					got[0], want[0] = flat.Invalidate(id), ref.Invalidate(id)
				case k < 950:
					n := rng.Intn(5)
					op = fmt.Sprintf("DropEvery(%d)", n)
					got[0], want[0] = flat.DropEvery(n), ref.DropEvery(n)
				case k < 962:
					n := rng.Intn(2*capacity + 3) // grows and shrinks
					op = fmt.Sprintf("Resize(%d)", n)
					got[0], want[0] = flat.Resize(n), ref.Resize(n)
				case k < 972:
					op = "FlushAll"
					got[0], want[0] = flat.FlushAll(), ref.FlushAll()
				case k < 976:
					op = "Clear"
					flat.Clear()
					ref.Clear()
				case k < 982:
					op = "Snapshot"
					flatSnap, refSnap = flat.Snapshot(), ref.Snapshot()
				case k < 986:
					// Sizing is invisible: the oracle has nothing to do.
					n := rng.Intn(2*capacity + 40)
					op = fmt.Sprintf("Reserve(%d)", n)
					flat.Reserve(n)
				default:
					switch rng.Intn(3) {
					case 0:
						op = "Restore(same pool)"
					case 1:
						op = "Restore(fresh pool)"
						flat = NewBufferPool(rng.Intn(4))
					case 2:
						op = "Restore(pool that held more)"
						flat = NewBufferPool(4*capacity + 40)
						for i := 0; i < 4*capacity+40; i++ {
							flat.Admit(PageID{Table: 9, Num: uint64(i)})
						}
					}
					flat.Restore(flatSnap)
					ref.Restore(refSnap)
				}
				at := fmt.Sprintf("capacity %d seed %d step %d %s %v", capacity, seed, step, op, id)
				if got != want {
					t.Fatalf("%s: returned %v, oracle %v", at, got, want)
				}
				gh, gm, ge, gf := flat.Stats()
				wh, wm, we, wf := ref.Stats()
				if gh != wh || gm != wm || ge != we || gf != wf {
					t.Fatalf("%s: stats %d/%d/%d/%d, oracle %d/%d/%d/%d", at, gh, gm, ge, gf, wh, wm, we, wf)
				}
				if flat.Len() != ref.Len() || flat.Capacity() != ref.Capacity() || flat.DirtyCount() != ref.DirtyCount() {
					t.Fatalf("%s: len/cap/dirty %d/%d/%d, oracle %d/%d/%d", at,
						flat.Len(), flat.Capacity(), flat.DirtyCount(), ref.Len(), ref.Capacity(), ref.DirtyCount())
				}
				if g, w := flat.DirtyPages(), ref.DirtyPages(); !slices.Equal(g, w) {
					t.Fatalf("%s: dirty pages %v, oracle %v", at, g, w)
				}
				order, wrapped := flat.order(t)
				if w := ref.order(); !slices.Equal(order, w) {
					t.Fatalf("%s: recency order %v, oracle %v", at, order, w)
				}
				sawWrap = sawWrap || wrapped
				for _, probe := range []PageID{id, page()} {
					if flat.Contains(probe) != ref.Contains(probe) {
						t.Fatalf("%s: Contains(%v) = %v, oracle %v", at, probe, flat.Contains(probe), ref.Contains(probe))
					}
				}
			}
		}
	}
	if !sawWrap {
		t.Error("no probe run ever wrapped the index end")
	}
}
