package cluster

import (
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/replication"
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

// recoveryBase is the fixed cost of every test node's crash recovery.
const recoveryBase = 500 * time.Millisecond

func makeNode(s *sim.Sim, name string) *node.Node {
	n := node.New(s, node.Config{
		Name: name, VCores: 4, MemoryBytes: 64 << 20,
		OpCPU: 10 * time.Microsecond, TxnCPU: 10 * time.Microsecond,
		Recovery: node.RecoveryConfig{Base: recoveryBase},
	}, node.NullBackend{})
	n.DB.MustCreateTable(ordersSchema(), 1000, genOrder)
	n.RebuildSchema = func(db *engine.DB) { db.MustCreateTable(ordersSchema(), 1000, genOrder) }
	return n
}

func makeCluster(s *sim.Sim, cfg FailoverConfig, replicas int) *Cluster {
	rw := makeNode(s, "rw")
	var ros []*node.Node
	for i := 0; i < replicas; i++ {
		ros = append(ros, makeNode(s, "ro"))
	}
	factory := func(target *node.Node) *replication.Stream {
		return replication.NewStream(s, replication.Config{
			Name: "stream", BatchInterval: time.Millisecond,
			Lanes: 1, PerRecord: time.Microsecond,
		}, target)
	}
	return New(s, "test", cfg, rw, ros, factory)
}

func TestClusterReplicationWiring(t *testing.T) {
	s := sim.New(epoch)
	c := makeCluster(s, FailoverConfig{}, 2)
	s.Go("writer", func(p *sim.Proc) {
		rw := c.RW()
		tbl := rw.DB.Table("orders")
		tx, err := rw.Begin(p)
		if err != nil {
			t.Error(err)
			return
		}
		tx.Update(tbl, engine.IntKey(3), engine.Row{engine.Int(3), engine.Str("PAID")})
		tx.Commit()
		p.Sleep(time.Second)
		for i := 0; i < 2; i++ {
			rm := c.Replica(i)
			row, _, _ := rm.Node.DB.Table("orders").Get(engine.IntKey(3))
			if row[1].Str() != "PAID" {
				t.Errorf("replica %d did not receive update", i)
			}
		}
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterReadNodeRoundRobinAndFallback(t *testing.T) {
	s := sim.New(epoch)
	c := makeCluster(s, FailoverConfig{}, 2)
	a, b := c.ReadNode(), c.ReadNode()
	if a == b {
		t.Fatal("round robin returned the same replica twice")
	}
	// All replicas down: reads fall back to RW.
	c.Replica(0).Node.SetState(node.Down)
	c.Replica(1).Node.SetState(node.Down)
	if got := c.ReadNode(); got != c.RW() {
		t.Fatal("no fallback to RW")
	}
	c.Shutdown()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartInPlaceTimings: a killed node recovers in place after the
// detection delay plus its priced recovery pass (only the fixed Base here:
// the test nodes price no per-record work), and keeps what it committed.
func TestRestartInPlaceTimings(t *testing.T) {
	s := sim.New(epoch)
	c := makeCluster(s, FailoverConfig{DetectDelay: time.Second}, 1)
	s.Go("injector", func(p *sim.Proc) {
		rw := c.RWMember()
		tx, _ := rw.Node.Begin(p)
		tx.Update(rw.Node.DB.Table("orders"), engine.IntKey(3), engine.Row{engine.Int(3), engine.Str("PAID")})
		if err := tx.Commit(); err != nil {
			t.Error(err)
		}
		start := p.Elapsed()
		if _, err := c.InjectNodeCrash(p, rw, storage.TornNone); err != nil {
			t.Error(err)
		}
		if got := p.Elapsed() - start; got != time.Second+recoveryBase {
			t.Errorf("RW recovery took %v, want %v (1s detect + recovery base)", got, time.Second+recoveryBase)
		}
		if rw.Node.State() != node.Running {
			t.Error("RW not running after recovery")
		}
		if row, _, ok := rw.Node.DB.Table("orders").Get(engine.IntKey(3)); !ok || row[1].Str() != "PAID" {
			t.Error("committed update lost across the crash")
		}
		ro := c.Replica(0)
		start = p.Elapsed()
		if _, err := c.InjectNodeCrash(p, ro, storage.TornNone); err != nil {
			t.Error(err)
		}
		if got := p.Elapsed() - start; got != time.Second+recoveryBase {
			t.Errorf("RO recovery took %v, want %v (1s detect + recovery base)", got, time.Second+recoveryBase)
		}
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartClearsBuffer: a kill loses the cache; recovery brings the node
// back cold.
func TestRestartClearsBuffer(t *testing.T) {
	s := sim.New(epoch)
	c := makeCluster(s, FailoverConfig{}, 0)
	s.Go("w", func(p *sim.Proc) {
		rw := c.RW()
		tbl := rw.DB.Table("orders")
		rw.ReadPage(p, tbl.PageOfBase(1))
		if rw.Buf.Len() == 0 {
			t.Error("buffer empty before the crash")
		}
		c.InjectNodeCrash(p, c.RWMember(), storage.TornNone)
		if rw.Buf.Len() != 0 {
			t.Error("buffer survived the crash")
		}
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPromoteFailoverSwitchesRoles(t *testing.T) {
	s := sim.New(epoch)
	cfg := FailoverConfig{
		DetectDelay:        time.Second,
		PromoteOnRWFailure: true,
		PreparePhase:       time.Second,
		SwitchPhase:        2 * time.Second,
		RecoverPhase:       3 * time.Second,
	}
	c := makeCluster(s, cfg, 1)
	oldRW := c.RW()
	oldRO := c.Replica(0).Node
	s.Go("injector", func(p *sim.Proc) {
		c.InjectNodeCrash(p, c.RWMember(), storage.TornNone)
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if c.RW() != oldRO {
		t.Fatal("RO was not promoted to RW")
	}
	if c.RW().State() != node.Running {
		t.Fatal("promoted RW not running")
	}
	if oldRW.State() != node.Running {
		t.Fatal("old RW did not rejoin")
	}
	// Old RW must now be an RO member with a fresh stream.
	var oldMember *Member
	for _, m := range c.Members() {
		if m.Node == oldRW {
			oldMember = m
		}
	}
	if oldMember == nil || oldMember.Role != RO || oldMember.Stream == nil {
		t.Fatal("old RW not rewired as replica")
	}
	// Timeline must contain the Figure 7 phases in order.
	tl := c.Timeline()
	wantPhases := []string{"RW crash injected", "RW failure detected", "prepare", "switch-over", "recovering", "RW' serving", "old RW rejoined"}
	if len(tl) < len(wantPhases) {
		t.Fatalf("timeline has %d events: %v", len(tl), tl)
	}
	for i, want := range wantPhases {
		if len(tl[i].Phase) < len(want) || tl[i].Phase[:len(want)] != want {
			t.Fatalf("timeline[%d] = %q, want prefix %q", i, tl[i].Phase, want)
		}
	}
	// Service restored at detect(1) + prepare(1) + switch(2) + recover(3) = 7s.
	for _, ev := range tl {
		if ev.Phase == "RW' serving requests" && ev.At != 7*time.Second {
			t.Fatalf("RW' serving at %v, want 7s", ev.At)
		}
	}
}

// TestPromoteWithoutReplicaFallsBack: a promote-on-failure architecture with
// no replica to promote recovers the killed RW in place.
func TestPromoteWithoutReplicaFallsBack(t *testing.T) {
	s := sim.New(epoch)
	c := makeCluster(s, FailoverConfig{PromoteOnRWFailure: true}, 0)
	rw := c.RW()
	s.Go("injector", func(p *sim.Proc) {
		c.InjectNodeCrash(p, c.RWMember(), storage.TornNone)
		if p.Elapsed() != recoveryBase {
			t.Errorf("in-place recovery done at %v, want %v", p.Elapsed(), recoveryBase)
		}
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if c.RW() != rw || rw.State() != node.Running {
		t.Fatal("RW not recovered in place")
	}
	if timelineContains(c, "prepare") {
		t.Fatalf("promotion phases without a replica; timeline: %v", c.Timeline())
	}
}

func TestWritesFailDuringOutageAndResumeAfter(t *testing.T) {
	s := sim.New(epoch)
	c := makeCluster(s, FailoverConfig{DetectDelay: 5 * time.Second}, 0)
	var failedDuring, okAfter bool
	s.Go("injector", func(p *sim.Proc) {
		p.Sleep(time.Second)
		c.InjectNodeCrash(p, c.RWMember(), storage.TornNone)
		c.Shutdown()
	})
	s.Go("client", func(p *sim.Proc) {
		p.Sleep(2 * time.Second) // mid-outage
		if _, err := c.RW().Begin(p); err != nil {
			failedDuring = true
		}
		p.Sleep(6 * time.Second) // after recovery
		if tx, err := c.RW().Begin(p); err == nil {
			okAfter = true
			tx.Abort()
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !failedDuring {
		t.Fatal("writes did not fail during outage")
	}
	if !okAfter {
		t.Fatal("writes did not resume after recovery")
	}
}
