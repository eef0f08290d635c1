package storage

import (
	"slices"
	"testing"
)

// fullPool returns a pool at capacity holding pages {1, 0..n-1}, page 0
// least recently used.
func fullPool(n int) *BufferPool {
	b := NewBufferPool(n)
	for i := 0; i < n; i++ {
		b.Admit(PageID{Table: 1, Num: uint64(i)})
	}
	return b
}

// TestBufferPoolAllocationFloors pins the pool's steady state at zero heap
// objects per operation, and a snapshot/restore pair at a handful of slice
// copies however many pages it carries (the list pool paid two objects per
// admission and 16 438 per 8192-page restore).
func TestBufferPoolAllocationFloors(t *testing.T) {
	const pages = 8192
	b := fullPool(pages)
	var i uint64
	floors := []struct {
		name string
		max  float64
		op   func()
	}{
		{"Pin hit", 0, func() {
			i++
			if !b.Pin(PageID{Table: 1, Num: i * 7919 % pages}) {
				t.Fatal("resident page missed")
			}
		}},
		{"MarkDirty", 0, func() {
			i++
			b.MarkDirty(PageID{Table: 1, Num: i * 7919 % pages})
		}},
		{"Invalidate + Admit", 0, func() {
			i++
			id := PageID{Table: 1, Num: i * 7919 % pages}
			if !b.Invalidate(id) {
				t.Fatal("resident page not invalidated")
			}
			b.Admit(id)
		}},
		// Last of the four: it replaces table 1's pages with table 2's.
		{"Pin miss + evicting Admit", 0, func() {
			i++
			id := PageID{Table: 2, Num: i}
			if b.Pin(id) {
				t.Fatal("fresh page hit")
			}
			if _, _, ok := b.Admit(id); !ok {
				t.Fatal("full pool admitted without evicting")
			}
		}},
		{"Snapshot + NewBufferPool + Restore", 8, func() {
			NewBufferPool(pages).Restore(b.Snapshot())
		}},
	}
	for _, f := range floors {
		if got := testing.AllocsPerRun(2000, f.op); got > f.max {
			t.Errorf("%s: %.2f allocs per run, want <= %.0f", f.name, got, f.max)
		}
	}
	if b.Len() != pages {
		t.Fatalf("pool holds %d pages after the floors, want %d", b.Len(), pages)
	}
}

// TestBufferPoolMemoryFollowsResidency: a pool's slab and index are sized
// by the pages it has held, not by its capacity — CDB4's 24 GiB remote pool
// is 3.1 M pages of capacity and must not cost that many frames up front.
func TestBufferPoolMemoryFollowsResidency(t *testing.T) {
	b := NewBufferPoolBytes(24 << 30)
	if cap(b.frames) != 0 || cap(b.index) != 0 {
		t.Fatalf("empty pool holds %d frames, %d index slots", cap(b.frames), cap(b.index))
	}
	for i := 0; i < 1000; i++ {
		b.Admit(PageID{Table: 1, Num: uint64(i)})
	}
	if cap(b.frames) > 4000 || cap(b.index) > 8000 {
		t.Fatalf("1000 resident pages of %d cost %d frames, %d index slots", b.Capacity(), cap(b.frames), cap(b.index))
	}
}

func TestBufferPoolCapacityLimit(t *testing.T) {
	for name, f := range map[string]func(){
		"NewBufferPool": func() { NewBufferPool(maxPoolPages + 1) },
		"Resize":        func() { NewBufferPool(1).Resize(maxPoolPages + 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s above 2^31-1 pages did not panic", name)
				}
			}()
			f()
		}()
	}
	NewBufferPool(maxPoolPages).Resize(maxPoolPages) // the limit itself is fine
}

// TestSnapshotDoesNotAliasPools: a snapshot is a copy out of the source
// and a restore is a copy into the target, so the source, the snapshot and
// every pool restored from it evolve independently. It fails if Restore
// adopts the snapshot's slices or Snapshot hands out the pool's.
func TestSnapshotDoesNotAliasPools(t *testing.T) {
	const pages = 64
	src := fullPool(pages)
	for i := 0; i < pages; i += 3 {
		src.MarkDirty(PageID{Table: 1, Num: uint64(i)})
	}
	snap := src.Snapshot()
	want, _ := src.order(t)
	wantDirty := src.DirtyPages()
	wantHits, wantMisses, wantEvicted, wantFlushed := src.Stats()

	// Churn a pool past a full eviction cycle, dirtying as it goes.
	churn := func(b *BufferPool, table TableID) {
		for i := 0; i < 3*pages; i++ {
			id := PageID{Table: table, Num: uint64(i)}
			if !b.Pin(id) {
				b.Admit(id)
			}
			b.MarkDirty(id)
		}
	}
	same := func(name string, b *BufferPool) {
		t.Helper()
		if got, _ := b.order(t); !slices.Equal(got, want) {
			t.Errorf("%s: pages changed under it:\n got %v\nwant %v", name, got, want)
		}
		if got := b.DirtyPages(); !slices.Equal(got, wantDirty) {
			t.Errorf("%s: dirty pages changed under it:\n got %v\nwant %v", name, got, wantDirty)
		}
		h, m, e, f := b.Stats()
		if h != wantHits || m != wantMisses || e != wantEvicted || f != wantFlushed {
			t.Errorf("%s: stats %d/%d/%d/%d, want %d/%d/%d/%d", name, h, m, e, f, wantHits, wantMisses, wantEvicted, wantFlushed)
		}
	}

	churn(src, 7) // the source keeps mutating after the snapshot
	a, b := NewBufferPool(1), fullPool(2*pages)
	a.Restore(snap)
	b.Restore(snap)
	same("restore into a fresh pool", a)
	same("restore into a pool that held more", b)

	churn(a, 8)
	same("sibling restored from the same snapshot", b)
	c := NewBufferPool(0)
	c.Restore(snap)
	same("third restore after a sibling churned", c)

	src.Restore(snap)
	same("source restored from its own snapshot", src)
	if a.Contains(PageID{Table: 1, Num: 0}) || !a.Contains(PageID{Table: 8, Num: 3*pages - 1}) {
		t.Error("churned pool does not hold its own pages")
	}
}
