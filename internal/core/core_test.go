package core

import (
	"runtime"
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/sim"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestDatasetScaling(t *testing.T) {
	d1 := NewDataset(1, 42)
	if d1.Customers != 300_000 || d1.Orders != 300_000 || d1.Orderlines != 3_000_000 {
		t.Fatalf("SF1 sizes: %+v", d1)
	}
	d10 := NewDataset(10, 42)
	if d10.Orderlines != 30_000_000 {
		t.Fatalf("SF10 orderlines = %d", d10.Orderlines)
	}
	if NewDataset(0, 1).SF != 1 {
		t.Fatal("SF floor")
	}
	// Raw size near the paper's 194 MB for SF1.
	gb := float64(d1.RawBytes()) / (1 << 30)
	if gb < 0.15 || gb > 0.25 {
		t.Fatalf("SF1 raw size = %.2f GB, want ~0.19", gb)
	}
}

func TestGeneratorsDeterministicAndKeyed(t *testing.T) {
	d := NewDataset(1, 42)
	cg, og, olg := d.CustomerGen(), d.OrdersGen(), d.OrderlineGen()
	for _, id := range []int64{1, 1000, 299_999} {
		a, b := cg(nil, id), cg(nil, id)
		if !a.Equal(b) {
			t.Fatalf("customer gen not deterministic for %d", id)
		}
		if a[0].I != id {
			t.Fatalf("customer PK mismatch: %v", a[0])
		}
	}
	o := og(nil, 5000)
	if o[0].I != 5000 || o[1].I < 1 || o[1].I > d.Customers {
		t.Fatalf("order row: %v", o)
	}
	if s := o[4].S; s != StatusNew && s != StatusPaid {
		t.Fatalf("order status %q", s)
	}
	// Orderline 47 belongs to order (47-1)/10+1 = 5.
	ol := olg(nil, 47)
	if ol[1].I != 5 {
		t.Fatalf("orderline 47 order ref = %d, want 5", ol[1].I)
	}
	// Different seeds produce different content.
	d2 := NewDataset(1, 43)
	if d2.CustomerGen()(nil, 7).Equal(cg(nil, 7)) {
		t.Fatal("different seeds produced identical rows")
	}
}

func TestCreateTables(t *testing.T) {
	s := sim.New(epoch)
	db := engine.NewDB(s)
	d := NewDataset(1, 42)
	if err := d.CreateTables(db); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{TableCustomer, TableOrders, TableOrderline} {
		if db.Table(name) == nil {
			t.Fatalf("missing table %s", name)
		}
	}
	if got := db.Table(TableOrders).BaseRows(); got != 300_000 {
		t.Fatalf("orders base rows = %d", got)
	}
	// Creating twice fails cleanly.
	if err := d.CreateTables(db); err == nil {
		t.Fatal("duplicate CreateTables succeeded")
	}
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("15:5:80")
	if err != nil || m.T1 != 15 || m.T2 != 5 || m.T3 != 80 || m.T4 != 0 {
		t.Fatalf("%+v %v", m, err)
	}
	for _, bad := range []string{"", "1:2", "1:2:3:4", "a:b:c", "-1:0:1", "0:0:0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) succeeded", bad)
		}
	}
	if !MixReadOnly.IsReadOnly() || MixReadWrite.IsReadOnly() {
		t.Fatal("IsReadOnly")
	}
	if MixReadWrite.String() != "15:5:80" {
		t.Fatalf("mix string = %q", MixReadWrite.String())
	}
	iud := IUDMix(60, 30, 10)
	if iud.T1 != 60 || iud.T2 != 30 || iud.T4 != 10 || iud.T3 != 0 {
		t.Fatalf("IUD mix: %+v", iud)
	}
}

func TestCollector(t *testing.T) {
	c := NewCollector()
	c.RecordCommit(T1NewOrderline, time.Second, 2*time.Millisecond)
	c.RecordCommit(T3OrderStatus, time.Second+200*time.Millisecond, time.Millisecond)
	c.RecordError(2 * time.Second)
	if c.Commits() != 2 || c.Errors() != 1 {
		t.Fatalf("commits/errors = %d/%d", c.Commits(), c.Errors())
	}
	if c.CountByType(T1NewOrderline) != 1 || c.CountByType(T2OrderPayment) != 0 {
		t.Fatal("per-type counts")
	}
	if got := c.TPS(time.Second, 2*time.Second); got != 2 {
		t.Fatalf("TPS = %v", got)
	}
	if c.Latency().Count() != 2 {
		t.Fatal("latency samples")
	}
}

// TestCollectorMemoryDoesNotGrowWithCommits gates the collector's footprint
// per commit: the latency histogram is a fixed array and every commit lands
// in one TPS bucket, so a million commits allocate next to nothing. A store
// that kept each sample would allocate megabytes here.
func TestCollectorMemoryDoesNotGrowWithCommits(t *testing.T) {
	const (
		commits = 1_000_000
		limit   = 64 << 10 // bytes, in total
	)
	c := NewCollector()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < commits; i++ {
		c.RecordCommit(T1NewOrderline, time.Second, time.Duration(i%5000)*time.Microsecond)
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= limit {
		t.Fatalf("%d commits allocated %d bytes, want < %d", commits, got, limit)
	}
	if c.Latency().Count() != commits {
		t.Fatalf("latency count = %d, want %d", c.Latency().Count(), commits)
	}
}

// makeSUT builds a single-node SUT with the SF-scaled dataset. A tiny SF
// via dataset override keeps tests fast.
func makeSUT(s *sim.Sim) *node.Node {
	n := node.New(s, node.Config{
		Name: "rw", VCores: 4, MemoryBytes: 256 << 20,
		OpCPU: 200 * time.Microsecond, TxnCPU: 100 * time.Microsecond,
	}, node.NullBackend{})
	d := NewDataset(1, 42)
	if err := d.CreateTables(n.DB); err != nil {
		panic(err)
	}
	return n
}

func runWorkload(t *testing.T, mix Mix, dist string, dur time.Duration, conc int) (*Collector, *node.Node) {
	t.Helper()
	s := sim.New(epoch)
	n := makeSUT(s)
	col := NewCollector()
	r := NewRunner(s, Config{
		Name: "w", Seed: 7, Mix: mix, Distribution: dist,
		Write:     func() *node.Node { return n },
		Read:      func() *node.Node { return n },
		Collector: col,
	})
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(conc)
		p.Sleep(dur)
		r.Stop()
		r.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return col, n
}

func TestRunnerExecutesMixedWorkload(t *testing.T) {
	col, n := runWorkload(t, MixReadWrite, "uniform", 2*time.Second, 8)
	if col.Commits() < 100 {
		t.Fatalf("commits = %d, want a few thousand", col.Commits())
	}
	if col.Errors() != 0 {
		t.Fatalf("errors = %d", col.Errors())
	}
	// Mix ratios approximately honored: T3 ~80%.
	frac := float64(col.CountByType(T3OrderStatus)) / float64(col.Commits())
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("T3 fraction = %.2f, want ~0.8", frac)
	}
	// T1 inserts landed in the orderline table.
	if got := n.DB.Table(TableOrderline).MaxID(); got <= 3_000_000 {
		t.Fatal("no orderlines inserted")
	}
	// T2 marked orders paid: commits recorded.
	if col.CountByType(T2OrderPayment) == 0 {
		t.Fatal("no payments executed")
	}
}

func TestRunnerWriteOnlyAndDeletes(t *testing.T) {
	col, n := runWorkload(t, Mix{T1: 50, T4: 50}, "uniform", time.Second, 4)
	if col.CountByType(T1NewOrderline) == 0 || col.CountByType(T4OrderlineDeletion) == 0 {
		t.Fatal("inserts or deletes missing")
	}
	ol := n.DB.Table(TableOrderline)
	if ol.LiveRows() == 3_000_000 {
		t.Fatal("live rows unchanged by write workload")
	}
	_ = col
}

func TestRunnerLatestDistributionSkewsAccess(t *testing.T) {
	// With the latest distribution, T2 touches only the 10 freshest
	// orders; verify by checking that low-id orders stay NEW... base
	// orders may already be PAID, so instead check buffer locality: the
	// read-write working set should be tiny.
	s := sim.New(epoch)
	n := makeSUT(s)
	col := NewCollector()
	r := NewRunner(s, Config{
		Name: "w", Seed: 7, Mix: Mix{T2: 100}, Distribution: "latest",
		Write:     func() *node.Node { return n },
		Read:      func() *node.Node { return n },
		Collector: col,
	})
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(4)
		p.Sleep(time.Second)
		r.Stop()
		r.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	orders := n.DB.Table(TableOrders)
	// Orders below MaxID-10 must never have been payment-updated: their
	// delta is empty, i.e. DeltaLen counts only rows near the tail plus
	// customers' rows live elsewhere.
	touched := orders.DeltaLen()
	if touched > 10 {
		t.Fatalf("latest-10 touched %d distinct orders, want <= 10", touched)
	}
	if col.Commits() == 0 {
		t.Fatal("no commits")
	}
}

func TestRunnerConcurrencyReshaping(t *testing.T) {
	// Each schedule sets one concurrency per one-second slot; check reads
	// the per-slot TPS.
	cases := []struct {
		sched []int
		check func(t *testing.T, tps func(slot int) float64)
	}{
		{[]int{2, 16, 0, 0}, func(t *testing.T, tps func(int) float64) {
			if low, high := tps(0), tps(1); high < low*2 {
				t.Fatalf("TPS did not grow with concurrency: %v -> %v", low, high)
			}
			// Measure idle on a whole slot strictly after the quiesce settles.
			if idle := tps(3); idle != 0 {
				t.Fatalf("TPS during zero-concurrency slot = %v", idle)
			}
		}},
		// Lower concurrency, then raise it again: workers that parked on
		// the way down must come back.
		{[]int{16, 2, 16}, func(t *testing.T, tps func(int) float64) {
			if first, last := tps(0), tps(2); last < first*0.9 {
				t.Fatalf("TPS did not recover after concurrency rose again: %v -> %v", first, last)
			}
		}},
	}
	for _, tc := range cases {
		sched := tc.sched
		s := sim.New(epoch)
		n := makeSUT(s)
		col := NewCollector()
		r := NewRunner(s, Config{
			Name: "w", Seed: 7, Mix: MixReadOnly,
			Write:     func() *node.Node { return n },
			Read:      func() *node.Node { return n },
			Collector: col,
		})
		s.Go("ctl", func(p *sim.Proc) {
			for _, c := range sched {
				r.SetConcurrency(c)
				p.Sleep(time.Second)
			}
			r.Stop()
			r.Wait(p)
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		tc.check(t, func(i int) float64 {
			return col.TPS(time.Duration(i)*time.Second, time.Duration(i+1)*time.Second)
		})
	}
}

func TestRunnerRoutesFailuresToErrors(t *testing.T) {
	s := sim.New(epoch)
	n := makeSUT(s)
	col := NewCollector()
	r := NewRunner(s, Config{
		Name: "w", Seed: 7, Mix: MixReadWrite,
		Write:     func() *node.Node { return n },
		Read:      func() *node.Node { return n },
		Collector: col, Retry: RetryPolicy{BackoffBase: 50 * time.Millisecond},
	})
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(4)
		p.Sleep(time.Second)
		n.SetState(node.Down)
		p.Sleep(2 * time.Second)
		n.SetState(node.Running)
		p.Sleep(time.Second)
		r.Stop()
		r.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if col.Errors() == 0 {
		t.Fatal("no errors during outage")
	}
	// Throughput resumed after restart (bucket fully after recovery).
	if col.TPS(3*time.Second, 4*time.Second) == 0 {
		t.Fatal("no TPS after recovery")
	}
	// Zero TPS during the outage (bucket fully inside it).
	if got := col.TPS(2*time.Second, 3*time.Second); got != 0 {
		t.Fatalf("TPS during outage = %v", got)
	}
}
