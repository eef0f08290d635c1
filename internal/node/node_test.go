package node

import (
	"errors"
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/netsim"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func ordersSchema() *engine.Schema {
	return &engine.Schema{
		Name: "orders",
		Cols: []engine.Column{
			{Name: "O_ID", Kind: engine.KindInt},
			{Name: "O_STATUS", Kind: engine.KindString},
		},
		KeyCols:     []int{0},
		AvgRowBytes: 64,
	}
}

func genOrder(dst engine.Row, id int64) engine.Row {
	return append(dst[:0], engine.Int(id), engine.Str("NEW"))
}

func newTestNode(s *sim.Sim, vcores float64, memBytes int64, backend StorageBackend) (*Node, *engine.Table) {
	n := New(s, Config{
		Name:        "n1",
		VCores:      vcores,
		MemoryBytes: memBytes,
		OpCPU:       100 * time.Microsecond,
		TxnCPU:      50 * time.Microsecond,
	}, backend)
	tbl := n.DB.MustCreateTable(ordersSchema(), 10000, genOrder)
	return n, tbl
}

func TestNodeTxCommitAndRead(t *testing.T) {
	s := sim.New(epoch)
	n, tbl := newTestNode(s, 4, 64<<20, NullBackend{})
	var committed []storage.Record
	n.OnCommit = func(p *sim.Proc, recs []storage.Record) { committed = recs }
	s.Go("w", func(p *sim.Proc) {
		tx, err := n.Begin(p)
		if err != nil {
			t.Error(err)
			return
		}
		row, err := tx.Get(tbl, engine.IntKey(5))
		if err != nil || row[0].Int() != 5 {
			t.Errorf("get: %v %v", row, err)
		}
		if err := tx.Update(tbl, engine.IntKey(5), engine.Row{engine.Int(5), engine.Str("PAID")}); err != nil {
			t.Error(err)
		}
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(committed) != 2 {
		t.Fatalf("OnCommit saw %d records, want 2", len(committed))
	}
	reads, writes := n.PageStats()
	if reads != 2 || writes != 1 {
		t.Fatalf("page stats = %d/%d, want 2 reads (1 from write) / 1 write", reads, writes)
	}
}

func TestNodeCPUThroughputScalesWithCores(t *testing.T) {
	// 200 ops of 100µs each: 1 vCore should take ~2x as long as 2 vCores
	// with 2 concurrent workers.
	elapsed := func(vcores float64) time.Duration {
		s := sim.New(epoch)
		n, _ := newTestNode(s, vcores, 64<<20, NullBackend{})
		for w := 0; w < 2; w++ {
			s.Go("w", func(p *sim.Proc) {
				for i := 0; i < 100; i++ {
					n.ChargeCPU(p, 100*time.Microsecond)
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Elapsed()
	}
	one, two := elapsed(1), elapsed(2)
	if two >= one {
		t.Fatalf("2 vCores (%v) not faster than 1 (%v)", two, one)
	}
	ratio := float64(one) / float64(two)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("speedup = %.2f, want ~2x", ratio)
	}
}

func TestNodeFractionalCoreStretchesService(t *testing.T) {
	s := sim.New(epoch)
	n, _ := newTestNode(s, 0.5, 64<<20, NullBackend{})
	s.Go("w", func(p *sim.Proc) {
		n.ChargeCPU(p, 100*time.Microsecond)
		if got := p.Elapsed(); got != 200*time.Microsecond {
			t.Errorf("0.5 vCore service = %v, want 200µs", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeBufferMissPaysBackend(t *testing.T) {
	s := sim.New(epoch)
	disk := NewLocalDisk(s, 10000)
	n, tbl := newTestNode(s, 4, 1<<30, disk)
	var first, second time.Duration
	s.Go("w", func(p *sim.Proc) {
		start := p.Elapsed()
		n.ReadPage(p, tbl.PageOfBase(1))
		first = p.Elapsed() - start
		start = p.Elapsed()
		n.ReadPage(p, tbl.PageOfBase(1))
		second = p.Elapsed() - start
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if first == 0 {
		t.Fatal("cold read was free")
	}
	if second != 0 {
		t.Fatalf("warm read cost %v, want free", second)
	}
}

func TestNodePausedResumesOnDemand(t *testing.T) {
	s := sim.New(epoch)
	n, tbl := newTestNode(s, 1, 64<<20, NullBackend{})
	n.SetState(Paused)
	resumeRequested := false
	n.OnResumeNeeded = func() {
		if resumeRequested {
			return
		}
		resumeRequested = true
		s.Go("resumer", func(p *sim.Proc) {
			p.Sleep(500 * time.Millisecond) // cold-start delay
			n.SetState(Running)
		})
	}
	var servedAt time.Duration
	s.Go("client", func(p *sim.Proc) {
		tx, err := n.Begin(p)
		if err != nil {
			t.Error(err)
			return
		}
		servedAt = p.Elapsed()
		tx.Get(tbl, engine.IntKey(1))
		tx.Commit()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !resumeRequested {
		t.Fatal("resume hook not invoked")
	}
	if servedAt < 500*time.Millisecond {
		t.Fatalf("served at %v, before resume completed", servedAt)
	}
}

func TestNodeDownFailsFast(t *testing.T) {
	s := sim.New(epoch)
	n, _ := newTestNode(s, 1, 64<<20, NullBackend{})
	n.SetState(Down)
	s.Go("client", func(p *sim.Proc) {
		if _, err := n.Begin(p); !errors.Is(err, ErrNodeDown) {
			t.Errorf("Begin on down node: %v", err)
		}
		if _, _, err := n.Read(p, "orders", engine.IntKey(1)); !errors.Is(err, ErrNodeDown) {
			t.Errorf("Read on down node: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSetVCoresRecordsSeries(t *testing.T) {
	s := sim.New(epoch)
	n, _ := newTestNode(s, 2, 64<<20, NullBackend{})
	s.Go("scaler", func(p *sim.Proc) {
		p.Sleep(time.Second)
		n.SetVCores(p.Elapsed(), 4)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n.VCores() != 4 {
		t.Fatalf("vcores = %v", n.VCores())
	}
	if got := n.Cores.At(0); got != 2 {
		t.Fatalf("cores series at 0 = %v", got)
	}
	if got := n.Cores.At(2 * time.Second); got != 4 {
		t.Fatalf("cores series at 2s = %v", got)
	}
}

func TestNodeSharedCPUPanicsOnSetVCores(t *testing.T) {
	s := sim.New(epoch)
	pool := sim.NewResource(s, 4000)
	n := New(s, Config{Name: "t", VCores: 4, MemoryBytes: 1 << 20, SharedCPU: pool,
		OpCPU: time.Microsecond, TxnCPU: time.Microsecond}, NullBackend{})
	defer func() {
		if recover() == nil {
			t.Fatal("SetVCores on shared pool did not panic")
		}
	}()
	n.SetVCores(0, 2)
}

func TestNodeMemoryResizeShrinksBuffer(t *testing.T) {
	s := sim.New(epoch)
	n, tbl := newTestNode(s, 4, 1<<30, NullBackend{})
	s.Go("w", func(p *sim.Proc) {
		for i := int64(1); i <= 1000; i += 128 {
			n.ReadPage(p, tbl.PageOfBase(i))
		}
		before := n.Buf.Len()
		n.SetMemoryBytes(p, p.Elapsed(), 2*storage.PageSize)
		if n.Buf.Len() > 2 || n.Buf.Len() >= before {
			t.Errorf("buffer len after shrink = %d (before %d)", n.Buf.Len(), before)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := n.Mem.At(time.Hour); got >= 1 {
		t.Fatalf("mem series = %v GB after shrink", got)
	}
}

func TestCheckpointerFlushesDirtyPages(t *testing.T) {
	s := sim.New(epoch)
	disk := NewLocalDisk(s, 1000)
	n := New(s, Config{
		Name: "rds", VCores: 4, MemoryBytes: 1 << 30,
		OpCPU: time.Microsecond, TxnCPU: time.Microsecond,
		CheckpointInterval: time.Second,
	}, disk)
	tbl := n.DB.MustCreateTable(ordersSchema(), 10000, genOrder)
	s.Go("w", func(p *sim.Proc) {
		for i := int64(1); i <= 512; i += 128 {
			n.WritePage(p, tbl.PageOfBase(i))
		}
		if n.Buf.DirtyCount() == 0 {
			t.Error("no dirty pages after writes")
		}
		p.Sleep(1500 * time.Millisecond) // let one checkpoint pass
		if n.Buf.DirtyCount() != 0 {
			t.Errorf("dirty pages after checkpoint = %d", n.Buf.DirtyCount())
		}
		n.StopCheckpointer()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDisaggStoreRedoPushdownSkipsFlush(t *testing.T) {
	s := sim.New(epoch)
	link := netsim.NewLink(s, netsim.TCP, 10)
	store := &DisaggStore{
		Link: link, Store: sim.NewQueue(s, 10000),
		PageServiceTime: 200 * time.Microsecond,
		LogAckLatency:   150 * time.Microsecond,
		RedoPushdown:    true,
	}
	s.Go("w", func(p *sim.Proc) {
		start := p.Elapsed()
		store.FlushPage(p, storage.PageID{})
		if p.Elapsed() != start {
			t.Error("redo-pushdown flush cost time")
		}
		start = p.Elapsed()
		store.FetchPage(p, storage.PageID{})
		if p.Elapsed() == start {
			t.Error("disaggregated fetch was free")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteBufferTwoTier(t *testing.T) {
	s := sim.New(epoch)
	remote := storage.NewBufferPool(1000)
	rdma := netsim.NewLink(s, netsim.RDMA, 10)
	tcp := netsim.NewLink(s, netsim.TCP, 10)
	fallback := &DisaggStore{
		Link: tcp, Store: sim.NewQueue(s, 10000),
		PageServiceTime: 200 * time.Microsecond,
	}
	rb := &RemoteBuffer{Remote: remote, RDMA: rdma, Fallback: fallback}
	pg := storage.PageID{Table: 1, Num: 7}
	var coldCost, remoteCost time.Duration
	s.Go("w", func(p *sim.Proc) {
		start := p.Elapsed()
		rb.FetchPage(p, pg) // cold: falls through to storage, seeds remote
		coldCost = p.Elapsed() - start
		start = p.Elapsed()
		rb.FetchPage(p, pg) // remote hit: RDMA only
		remoteCost = p.Elapsed() - start
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if remoteCost >= coldCost {
		t.Fatalf("remote hit (%v) not cheaper than storage fetch (%v)", remoteCost, coldCost)
	}
	if !remote.Contains(pg) {
		t.Fatal("cold fetch did not seed the remote pool")
	}
}

// An evicted dirty page is written back to the remote pool, not the page
// whose admission evicted it: a two-page local buffer and a two-page remote
// pool, where the fetch of c pushes a out of both tiers, must end with the
// writeback re-admitting a.
func TestRemoteBufferReceivesEvictedDirtyPage(t *testing.T) {
	s := sim.New(epoch)
	remote := storage.NewBufferPool(2)
	rb := &RemoteBuffer{Remote: remote, RDMA: netsim.NewLink(s, netsim.RDMA, 10), Fallback: NullBackend{}}
	n := New(s, Config{Name: "n1", VCores: 1, MemoryBytes: 2 * storage.PageSize}, rb)
	a, b, c := storage.PageID{Table: 1, Num: 1}, storage.PageID{Table: 1, Num: 2}, storage.PageID{Table: 1, Num: 3}
	s.Go("w", func(p *sim.Proc) {
		n.WritePage(p, a)
		n.ReadPage(p, b)
		n.ReadPage(p, c)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n.Buf.Contains(a) {
		t.Fatal("local buffer still holds a; the test did not evict it")
	}
	if !remote.Contains(a) {
		t.Fatal("evicted dirty page a never reached the remote pool")
	}
}

func TestLocalDiskIOPSQueueing(t *testing.T) {
	s := sim.New(epoch)
	disk := NewLocalDisk(s, 10) // 10 IOPS: each op takes 100ms of channel
	var last time.Duration
	s.Go("w", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			disk.FetchPage(p, storage.PageID{Num: uint64(i)})
		}
		last = p.Elapsed()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// 5 fetches at 10 IOPS >= 500ms of channel time.
	if last < 500*time.Millisecond {
		t.Fatalf("5 fetches at 10 IOPS took %v, want >= 500ms", last)
	}
}

// TestScanReadCrossChecksASampleAcrossRecovery serves read-only scans
// through the planner: the first scan and every scanCheckEvery-th after it
// are cross-checked against the other plan, the check costs no virtual time
// and no planner count, and the node keeps its count across a crash and
// recovery.
func TestScanReadCrossChecksASampleAcrossRecovery(t *testing.T) {
	s := sim.New(epoch)
	n := New(s, Config{Name: "n1", VCores: 1, MemoryBytes: 64 << 20, OpCPU: 100 * time.Microsecond}, NullBackend{})
	n.RebuildSchema = func(db *engine.DB) {
		db.MustCreateTable(ordersSchema(), 200, genOrder)
		db.MustCreateIndex("orders", "ix_orders_status", "O_STATUS")
	}
	n.RebuildSchema(n.DB)
	status := engine.Str("NEW")
	scan := func(p *sim.Proc) time.Duration {
		t0 := p.Elapsed()
		rows, err := n.ScanRead(p, "orders", 1, status, status, 0)
		if err != nil || len(rows) != 200 {
			t.Errorf("scan: %d rows, %v", len(rows), err)
		}
		return p.Elapsed() - t0
	}
	s.Go("client", func(p *sim.Proc) {
		if checked, unchecked := scan(p), scan(p); checked != unchecked {
			t.Errorf("a cross-checked scan took %v, an unchecked one %v", checked, unchecked)
		}
		for range 2*scanCheckEvery - 1 {
			scan(p)
		}
		if ix, full := n.DB.Table("orders").ScanStats(); ix+full != 2*scanCheckEvery+1 {
			t.Errorf("planner counted %d scans, want %d", ix+full, 2*scanCheckEvery+1)
		}
		n.Crash(storage.TornNone)
		if _, err := n.Recover(p); err != nil {
			t.Error(err)
			return
		}
		for range scanCheckEvery {
			scan(p)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Scans 0, N, 2N before the crash and 3N after it.
	if checked, every, diff := n.ScanChecks(); checked != 4 || every != scanCheckEvery || diff != "" {
		t.Fatalf("ScanChecks = %d, %d, %q; want 4, %d, \"\"", checked, every, diff, scanCheckEvery)
	}
}

// TestScanPathsChargeAlike runs the same range query once through a
// transaction's ScanRange and once through ScanRead, each on its own fresh
// node over a disk backend, for a range the planner serves from the index and
// one it serves by full scan. Both must take the same virtual time and add
// the same page reads: the two paths share one charge.
func TestScanPathsChargeAlike(t *testing.T) {
	// cost returns the virtual time and page reads that one scan call added
	// on a quiet node, and the plan that served it.
	cost := func(inTx bool, col int, lo, hi engine.Value) (took time.Duration, reads int64, plan engine.PlanKind) {
		s := sim.New(epoch)
		n, tbl := newTestNode(s, 1, 64<<20, NewLocalDisk(s, 10000))
		n.DB.MustCreateIndex("orders", "ix_orders_status", "O_STATUS")
		s.Go("client", func(p *sim.Proc) {
			var tx *Tx
			if inTx {
				var err error
				if tx, err = n.Begin(p); err != nil {
					t.Error(err)
					return
				}
				defer tx.Commit()
			}
			t0 := p.Elapsed()
			r0, _ := n.PageStats()
			var rows []engine.Row
			var err error
			if inTx {
				rows, err = tx.ScanRange(tbl, col, lo, hi, 8)
			} else {
				rows, err = n.ScanRead(p, "orders", col, lo, hi, 8)
			}
			if err != nil || len(rows) != 8 {
				t.Errorf("scan: %d rows, %v", len(rows), err)
			}
			r1, _ := n.PageStats()
			took, reads = p.Elapsed()-t0, r1-r0
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if ix, _ := tbl.ScanStats(); ix > 0 {
			plan = engine.PlanIndexScan
		}
		return took, reads, plan
	}
	for _, q := range []struct {
		col    int
		lo, hi engine.Value
		want   engine.PlanKind
	}{
		{1, engine.Str("NEW"), engine.Str("NEW"), engine.PlanIndexScan},
		{0, engine.Int(1), engine.Int(50), engine.PlanFullScan},
	} {
		txTook, txReads, txPlan := cost(true, q.col, q.lo, q.hi)
		rdTook, rdReads, rdPlan := cost(false, q.col, q.lo, q.hi)
		if txPlan != q.want || rdPlan != q.want {
			t.Fatalf("col %d: plans %v and %v, want %v", q.col, txPlan, rdPlan, q.want)
		}
		if txReads == 0 || txTook == 0 {
			t.Fatalf("%v: ScanRange was free: %v, %d page reads", q.want, txTook, txReads)
		}
		if txTook != rdTook || txReads != rdReads {
			t.Errorf("%v: ScanRange took %v and %d page reads, ScanRead %v and %d", q.want, txTook, txReads, rdTook, rdReads)
		}
	}
}
