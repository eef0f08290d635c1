package node

import (
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// missBackend stretches every page fetch over virtual time, so concurrent
// readers of one page pile up on its I/O latch.
type missBackend struct{ NullBackend }

func (missBackend) FetchPage(p *sim.Proc, _ storage.PageID) { p.Sleep(time.Microsecond) }

// TestReadPathAllocatesNothing gates the replica read path and the
// transaction shell at zero: with the key and the row in caller scratch,
// a point read is resource charging and buffer bookkeeping alone, Begin
// reuses a finished Tx, and a page miss reuses a finished fetch's latch.
func TestReadPathAllocatesNothing(t *testing.T) {
	s := sim.New(epoch)
	n, tbl := newTestNode(s, 4, 64<<20, NullBackend{})
	s.Go("reader", func(p *sim.Proc) {
		key := make([]byte, 0, 16)
		row := make(engine.Row, 0, len(tbl.Schema.Cols))
		id := int64(0)
		gate := func(name string, f func()) {
			if got := testing.AllocsPerRun(2000, f); got != 0 {
				t.Errorf("%s: %v allocs per run, want 0", name, got)
			}
		}
		gate("Node.ReadInto", func() {
			id = id%100 + 1 // two resident pages: the buffer's hit path
			key = engine.AppendIntKey(key[:0], id)
			got, ok, err := n.ReadInto(p, "orders", key, row)
			if err != nil || !ok || got[0].Int() != id {
				t.Fatalf("read %d: %v %v %v", id, got, ok, err)
			}
		})
		gate("Begin+GetInto+Commit", func() {
			id = id%100 + 1
			tx, err := n.Begin(p)
			if err != nil {
				t.Fatal(err)
			}
			key = engine.AppendIntKey(key[:0], id)
			if _, err := tx.GetInto(tbl, key, row); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPageLatchesAreRecycled drives many single-flighted misses and checks
// that latches come back: the node ends up owning as many as were ever in
// flight at once, not one per miss.
func TestPageLatchesAreRecycled(t *testing.T) {
	s := sim.New(epoch)
	n, _ := newTestNode(s, 64, 64<<20, missBackend{})
	const readers, rounds = 4, 50
	for r := 0; r < readers; r++ {
		s.Go("reader", func(p *sim.Proc) {
			for i := 0; i < rounds; i++ {
				// Every reader wants the same cold page: one fetches, the
				// rest wait on its latch.
				n.ReadPage(p, storage.PageID{Table: 9, Num: uint64(i)})
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(n.ioLatch) != 0 {
		t.Fatalf("%d latches still registered", len(n.ioLatch))
	}
	if got := len(n.latchFree); got != 1 {
		t.Fatalf("%d latches on the free-list after %d single-flighted misses, want 1", got, rounds)
	}
	if reads, _ := n.PageStats(); reads != readers*rounds {
		t.Fatalf("page reads %d, want %d", reads, readers*rounds)
	}
}
