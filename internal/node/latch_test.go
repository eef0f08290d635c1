package node

import (
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// countingBackend counts fetches and charges a fixed latency.
type countingBackend struct {
	fetches int
	latency time.Duration
}

func (c *countingBackend) FetchPage(p *sim.Proc, pg storage.PageID) {
	c.fetches++
	p.Sleep(c.latency)
}
func (c *countingBackend) FlushPage(*sim.Proc, storage.PageID) {}
func (c *countingBackend) WriteLog(*sim.Proc, int)             {}

func TestReadPageSingleFlightsConcurrentMisses(t *testing.T) {
	s := sim.New(epoch)
	backend := &countingBackend{latency: 10 * time.Millisecond}
	n := New(s, Config{
		Name: "n", VCores: 4, MemoryBytes: 1 << 30,
		OpCPU: time.Microsecond, TxnCPU: time.Microsecond,
	}, backend)
	pg := storage.PageID{Table: 1, Num: 7}
	const workers = 50
	var done int
	for i := 0; i < workers; i++ {
		s.Go("r", func(p *sim.Proc) {
			n.ReadPage(p, pg)
			done++
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != workers {
		t.Fatalf("done = %d", done)
	}
	// One fetch serves all fifty concurrent misses.
	if backend.fetches != 1 {
		t.Fatalf("fetches = %d, want 1 (single-flight)", backend.fetches)
	}
	// Everyone waited roughly one fetch latency, not fifty.
	if got := s.Elapsed(); got > 15*time.Millisecond {
		t.Fatalf("makespan = %v, want ~10ms", got)
	}
}

func TestReadPageDistinctPagesFetchIndependently(t *testing.T) {
	s := sim.New(epoch)
	backend := &countingBackend{latency: time.Millisecond}
	n := New(s, Config{
		Name: "n", VCores: 4, MemoryBytes: 1 << 30,
		OpCPU: time.Microsecond, TxnCPU: time.Microsecond,
	}, backend)
	for i := 0; i < 8; i++ {
		pg := storage.PageID{Table: 1, Num: uint64(i)}
		s.Go("r", func(p *sim.Proc) { n.ReadPage(p, pg) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if backend.fetches != 8 {
		t.Fatalf("fetches = %d, want 8", backend.fetches)
	}
}

func TestGetForUpdateSerializesWriters(t *testing.T) {
	s := sim.New(epoch)
	n, tbl := newTestNode(s, 4, 64<<20, NullBackend{})
	// Two writers bump the same counter row concurrently via
	// GetForUpdate; both increments must land (no lost update, no
	// upgrade deadlock).
	for i := 0; i < 2; i++ {
		s.Go("w", func(p *sim.Proc) {
			tx, err := n.Begin(p)
			if err != nil {
				t.Error(err)
				return
			}
			row, err := tx.GetForUpdate(tbl, engine.IntKey(5))
			if err != nil {
				t.Error(err)
				return
			}
			upd := row.Clone()
			upd[1] = engine.Str(upd[1].Str() + "+")
			p.Sleep(time.Millisecond) // hold the X lock across time
			if err := tx.Update(tbl, engine.IntKey(5), upd); err != nil {
				t.Error(err)
				return
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	row, _, _ := tbl.Get(engine.IntKey(5))
	if row[1].Str() != "NEW++" {
		t.Fatalf("status = %q, want NEW++ (both increments)", row[1].Str())
	}
	if _, timeouts := n.DB.Locks().Stats(); timeouts != 0 {
		t.Fatalf("lock timeouts = %d (upgrade deadlock?)", timeouts)
	}
}
