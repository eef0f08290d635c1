package cluster

import (
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

func TestPromoteWithTwoReplicasKeepsSecondServing(t *testing.T) {
	s := sim.New(epoch)
	cfg := FailoverConfig{
		PromoteOnRWFailure: true,
		PreparePhase:       time.Second,
		SwitchPhase:        time.Second,
		RecoverPhase:       time.Second,
	}
	c := makeCluster(s, cfg, 2)
	secondRO := c.Replica(1).Node
	s.Go("injector", func(p *sim.Proc) {
		c.InjectNodeCrash(p, c.RWMember(), storage.TornNone)
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Exactly one RW remains, and the untouched replica is running.
	rwCount := 0
	for _, m := range c.Members() {
		if m.Role == RW {
			rwCount++
		}
	}
	if rwCount != 1 {
		t.Fatalf("RW members = %d", rwCount)
	}
	if secondRO.State() != node.Running {
		t.Fatal("second replica not running after promotion")
	}
}

func TestWritesContinueOnPromotedRW(t *testing.T) {
	s := sim.New(epoch)
	cfg := FailoverConfig{
		PromoteOnRWFailure: true,
		PreparePhase:       time.Second,
		SwitchPhase:        time.Second,
		RecoverPhase:       time.Second,
	}
	c := makeCluster(s, cfg, 1)
	s.Go("flow", func(p *sim.Proc) {
		// Write before the failure.
		rw := c.RW()
		tbl := rw.DB.Table("orders")
		tx, _ := rw.Begin(p)
		tx.Update(tbl, engine.IntKey(1), engine.Row{engine.Int(1), engine.Str("PAID")})
		tx.Commit()
		p.Sleep(500 * time.Millisecond) // replicate

		c.InjectNodeCrash(p, c.RWMember(), storage.TornNone)

		// Write after promotion goes to the new RW; the pre-failure write
		// must be visible there (it was replicated before the switch).
		newRW := c.RW()
		ntbl := newRW.DB.Table("orders")
		row, _, ok := ntbl.Get(engine.IntKey(1))
		if !ok || row[1].Str() != "PAID" {
			t.Errorf("pre-failure write lost on promoted RW: %v %v", row, ok)
		}
		tx2, err := newRW.Begin(p)
		if err != nil {
			t.Errorf("promoted RW rejects writes: %v", err)
			return
		}
		if err := tx2.Update(ntbl, engine.IntKey(2), engine.Row{engine.Int(2), engine.Str("PAID")}); err != nil {
			t.Error(err)
		}
		if err := tx2.Commit(); err != nil {
			t.Error(err)
		}
		p.Sleep(500 * time.Millisecond)
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// The post-promotion write replicated to the rejoined old RW.
	var oldRWMember *Member
	for _, m := range c.Members() {
		if m.Role == RO {
			oldRWMember = m
		}
	}
	if oldRWMember == nil {
		t.Fatal("no RO member after promotion")
	}
	row, _, ok := oldRWMember.Node.DB.Table("orders").Get(engine.IntKey(2))
	if !ok || row[1].Str() != "PAID" {
		t.Fatalf("post-promotion write not replicated back: %v %v", row, ok)
	}
}
