package baselines

import (
	"testing"
	"time"

	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/rng"
	"cloudybench/internal/sim"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func makeNode(s *sim.Sim) *node.Node {
	return node.New(s, node.Config{
		Name: "n", VCores: 4, MemoryBytes: 512 << 20,
		OpCPU: 50 * time.Microsecond, TxnCPU: 30 * time.Microsecond,
	}, node.NullBackend{})
}

func TestSysBenchSetupAndRun(t *testing.T) {
	s := sim.New(epoch)
	n := makeNode(s)
	if err := SysBench.Tables(n.DB, 1, 42); err != nil {
		t.Fatal(err)
	}
	col := runSuite(t, s, n, SysBench, 7, 11) // the paper's thread count
	if col.Commits() < 100 {
		t.Fatalf("commits = %d", col.Commits())
	}
	if col.Errors() != 0 {
		t.Fatalf("errors = %d", col.Errors())
	}
	// Writes actually happened: some sbtest table has delta entries.
	touched := 0
	for _, name := range sbTableNames {
		touched += n.DB.Table(name).DeltaLen()
	}
	if touched == 0 {
		t.Fatal("no writes recorded")
	}
}

// runSuite drives a suite on one node through core.Runner for two virtual
// seconds at the given concurrency.
func runSuite(t *testing.T, s *sim.Sim, n *node.Node, st *core.Suite, seed int64, conc int) *core.Collector {
	t.Helper()
	col := core.NewCollector()
	r := core.NewRunner(s, core.Config{
		Name: st.Name, Seed: seed,
		Write:     func() *node.Node { return n },
		Read:      func() *node.Node { return n },
		Collector: col,
		Ops:       st.Ops(1),
	})
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(conc)
		p.Sleep(2 * time.Second)
		r.Stop()
		r.Wait(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return col
}

func newTPCCNode(t *testing.T, s *sim.Sim) *node.Node {
	t.Helper()
	n := makeNode(s)
	if err := TPCC.Tables(n.DB, 1, 42); err != nil {
		t.Fatal(err)
	}
	return n
}

// runTPCCOp runs one TPC-C transaction by op name on a fresh terminal state.
func runTPCCOp(t *testing.T, s *sim.Sim, n *node.Node, name string, seed int64) {
	t.Helper()
	for _, op := range TPCC.Ops(1) {
		if op.Name != name {
			continue
		}
		s.Go("t", func(p *sim.Proc) {
			if err := op.Run(&core.OpCtx{P: p, Node: n, Src: rng.New(seed)}); err != nil {
				t.Error(err)
			}
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no TPC-C op %q", name)
}

func TestTPCCLoadInvariants(t *testing.T) {
	s := sim.New(epoch)
	n := newTPCCNode(t, s)
	db := n.DB
	if got := db.Table("warehouse").LiveRows(); got != 1 {
		t.Fatalf("warehouses = %d", got)
	}
	if got := db.Table("district").LiveRows(); got != 10 {
		t.Fatalf("districts = %d", got)
	}
	if got := db.Table("customer").LiveRows(); got != 30_000 {
		t.Fatalf("customers = %d", got)
	}
	if got := db.Table("stock").LiveRows(); got != 100_000 {
		t.Fatalf("stock = %d", got)
	}
	if got := db.Table("orders").LiveRows(); got != 30_000 {
		t.Fatalf("orders = %d", got)
	}
	if got := db.Table("new_order").LiveRows(); got != 9_000 {
		t.Fatalf("new orders = %d, want 900/district", got)
	}
	if got := db.Table("order_line").LiveRows(); got != 300_000 {
		t.Fatalf("order lines = %d", got)
	}
	// District rows carry the next order id.
	drow, _, _ := db.Table("district").Get(engine.IntKey(3))
	if drow[4].I != tpccInitialOrders+1 {
		t.Fatalf("D_NEXT_O_ID = %d", drow[4].I)
	}
}

func TestTPCCNewOrderAdvancesDistrictAndStock(t *testing.T) {
	s := sim.New(epoch)
	n := newTPCCNode(t, s)
	runTPCCOp(t, s, n, "new-order", 7)
	// Exactly one district advanced its order counter.
	advanced := 0
	var district int64
	for dk := int64(1); dk <= 10; dk++ {
		drow, _, _ := n.DB.Table("district").Get(engine.IntKey(dk))
		if drow[4].I == tpccInitialOrders+2 {
			advanced++
			district = dk
		}
	}
	if advanced != 1 {
		t.Fatalf("districts advanced = %d", advanced)
	}
	// The new order and its lines exist.
	okey := orderKeyID(1, int(district), tpccInitialOrders+1)
	orow, _, ok := n.DB.Table("orders").Get(engine.IntKey(okey))
	if !ok {
		t.Fatal("order row missing")
	}
	cnt := int(orow[4].I)
	if cnt < 5 || cnt > 15 {
		t.Fatalf("ol count = %d", cnt)
	}
	for ol := 1; ol <= cnt; ol++ {
		if _, _, ok := n.DB.Table("order_line").Get(engine.IntKey(orderLineKeyID(okey, ol))); !ok {
			t.Fatalf("order line %d missing", ol)
		}
	}
	if _, _, ok := n.DB.Table("new_order").Get(engine.IntKey(okey)); !ok {
		t.Fatal("new_order row missing")
	}
}

func TestTPCCPaymentMovesMoney(t *testing.T) {
	s := sim.New(epoch)
	n := newTPCCNode(t, s)
	wBefore, _, _ := n.DB.Table("warehouse").Get(engine.IntKey(1))
	runTPCCOp(t, s, n, "payment", 9)
	wAfter, _, _ := n.DB.Table("warehouse").Get(engine.IntKey(1))
	if wAfter[3].F <= wBefore[3].F {
		t.Fatal("warehouse YTD did not grow")
	}
	if n.DB.Table("history").LiveRows() != 1 {
		t.Fatal("history row missing")
	}
}

func TestTPCCDeliveryConsumesNewOrders(t *testing.T) {
	s := sim.New(epoch)
	n := newTPCCNode(t, s)
	before := n.DB.Table("new_order").LiveRows()
	runTPCCOp(t, s, n, "delivery", 11)
	after := n.DB.Table("new_order").LiveRows()
	if after != before-10 {
		t.Fatalf("new_order rows %d -> %d, want -10 (one per district)", before, after)
	}
}

func TestTPCCFullMixRuns(t *testing.T) {
	s := sim.New(epoch)
	n := newTPCCNode(t, s)
	col := runSuite(t, s, n, TPCC, 13, 8)
	if col.Commits() < 100 {
		t.Fatalf("commits = %d", col.Commits())
	}
	for _, op := range TPCC.Ops(1) {
		if col.CountByOp(op.Name) == 0 {
			t.Fatalf("no %s committed", op.Name)
		}
	}
	if col.Errors() != 0 {
		t.Fatalf("errors = %d", col.Errors())
	}
	// Money conservation-ish sanity: warehouse YTD only grows.
	wrow, _, _ := n.DB.Table("warehouse").Get(engine.IntKey(1))
	if wrow[3].F < 300_000 {
		t.Fatalf("warehouse YTD shrank: %v", wrow[3].F)
	}
}
