package cluster

import (
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/replication"
	"cloudybench/internal/sim"
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

func makeNode(s *sim.Sim, name string) *node.Node {
	n := node.New(s, node.Config{
		Name: name, VCores: 4, MemoryBytes: 64 << 20,
		OpCPU: 10 * time.Microsecond, TxnCPU: 10 * time.Microsecond,
	}, node.NullBackend{})
	n.DB.MustCreateTable(ordersSchema(), 1000, genOrder)
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
			if row[1].S != "PAID" {
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

func TestRestartInPlaceTimings(t *testing.T) {
	s := sim.New(epoch)
	cfg := FailoverConfig{
		DetectDelay:          time.Second,
		RestartServiceTime:   10 * time.Second,
		RORestartServiceTime: 3 * time.Second,
		ClearBufferOnRestart: true,
	}
	c := makeCluster(s, cfg, 1)
	s.Go("injector", func(p *sim.Proc) {
		rw := c.RWMember()
		c.InjectRestart(p, rw)
		if got := p.Elapsed(); got != 11*time.Second {
			t.Errorf("RW restart completed at %v, want 11s (1s detect + 10s restart)", got)
		}
		if rw.Node.State() != node.Running {
			t.Error("RW not running after restart")
		}
		ro := c.Replica(0)
		start := p.Elapsed()
		c.InjectRestart(p, ro)
		if got := p.Elapsed() - start; got != 4*time.Second {
			t.Errorf("RO restart took %v, want 4s (1s detect + 3s RO restart)", got)
		}
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartClearsBuffer(t *testing.T) {
	s := sim.New(epoch)
	cfg := FailoverConfig{RestartServiceTime: time.Second, ClearBufferOnRestart: true}
	c := makeCluster(s, cfg, 0)
	s.Go("w", func(p *sim.Proc) {
		rw := c.RW()
		tbl := rw.DB.Table("orders")
		rw.ReadPage(p, tbl.PageOfBase(1))
		if rw.Buf.Len() == 0 {
			t.Error("buffer empty before restart")
		}
		c.InjectRestart(p, c.RWMember())
		if rw.Buf.Len() != 0 {
			t.Error("buffer survived restart")
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
		RestartServiceTime: 2 * time.Second,
	}
	c := makeCluster(s, cfg, 1)
	oldRW := c.RW()
	oldRO := c.Replica(0).Node
	s.Go("injector", func(p *sim.Proc) {
		c.InjectRestart(p, c.RWMember())
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
	wantPhases := []string{"RW failure detected", "prepare", "switch-over", "recovering", "RW' serving", "old RW rejoined"}
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

func TestPromoteWithoutReplicaFallsBack(t *testing.T) {
	s := sim.New(epoch)
	cfg := FailoverConfig{
		PromoteOnRWFailure: true,
		RestartServiceTime: 2 * time.Second,
	}
	c := makeCluster(s, cfg, 0)
	s.Go("injector", func(p *sim.Proc) {
		c.InjectRestart(p, c.RWMember())
		if p.Elapsed() != 2*time.Second {
			t.Errorf("fallback restart at %v", p.Elapsed())
		}
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWritesFailDuringOutageAndResumeAfter(t *testing.T) {
	s := sim.New(epoch)
	cfg := FailoverConfig{RestartServiceTime: 5 * time.Second}
	c := makeCluster(s, cfg, 0)
	var failedDuring, okAfter bool
	s.Go("injector", func(p *sim.Proc) {
		p.Sleep(time.Second)
		c.InjectRestart(p, c.RWMember())
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
		t.Fatal("writes did not resume after restart")
	}
}
