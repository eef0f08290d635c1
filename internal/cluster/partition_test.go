package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/replication"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// timelineContains reports whether any phase event starts with the prefix.
func timelineContains(c *Cluster, prefix string) bool {
	for _, ev := range c.Timeline() {
		if strings.HasPrefix(ev.Phase, prefix) {
			return true
		}
	}
	return false
}

// TestDetectorNoReachableROFallsBackToAwaitHeal: a partitioned RW with no
// reachable promotion target (every replica on the minority side) must wait
// the partition out, then kill the primary and recover it in place.
func TestDetectorNoReachableROFallsBackToAwaitHeal(t *testing.T) {
	s := sim.New(epoch)
	c := makeCluster(s, FailoverConfig{}, 1)
	rw := c.RW()

	// The whole data plane is on the minority side: neither the RW nor the
	// replica is reachable, so there is nothing to promote onto.
	reachable := true
	c.SetReachable(func(*node.Node) bool { return reachable })
	c.StartDetector(DetectorConfig{
		Interval: 500 * time.Millisecond, Suspicion: 2, PromoteOnPartition: true,
	})

	s.Go("ctl", func(p *sim.Proc) {
		p.Sleep(time.Second)
		reachable = false
		p.Sleep(4 * time.Second)
		reachable = true // heal
		p.Sleep(5 * time.Second)
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !timelineContains(c, "partition: no reachable RO, awaiting heal") {
		t.Fatalf("missing await-heal mark; timeline: %v", c.Timeline())
	}
	if !timelineContains(c, "RW service restored") {
		t.Fatalf("RW never restarted after the heal; timeline: %v", c.Timeline())
	}
	if c.RW() != rw {
		t.Fatal("RW changed despite having no promotion target")
	}
	if rw.State() != node.Running {
		t.Fatal("RW not running after restart-in-place")
	}
}

// TestPromoteDrainsReplicaBacklogBeforeTakeover: records committed on the
// old RW but still sitting in the replication pipeline (a coarse batch
// interval keeps them buffered) must be applied to the promotion target
// before it takes over — skipping them would silently lose acknowledged
// commits.
func TestPromoteDrainsReplicaBacklogBeforeTakeover(t *testing.T) {
	s := sim.New(epoch)
	rw := makeNode(s, "rw")
	ro := makeNode(s, "ro")
	factory := func(target *node.Node) *replication.Stream {
		return replication.NewStream(s, replication.Config{
			// A batch interval far past the test horizon: nothing ships
			// until DrainPending forces it.
			Name: "stream", BatchInterval: time.Hour,
			Lanes: 1, PerRecord: time.Microsecond,
		}, target)
	}
	cfg := FailoverConfig{
		PromoteOnRWFailure: true,
		PreparePhase:       time.Second,
		SwitchPhase:        time.Second,
		RecoverPhase:       time.Second,
	}
	c := New(s, "test", cfg, rw, []*node.Node{ro}, factory)

	s.Go("ctl", func(p *sim.Proc) {
		tbl := rw.DB.Table("orders")
		for i := int64(1); i <= 5; i++ {
			tx, err := rw.Begin(p)
			if err != nil {
				t.Error(err)
				return
			}
			tx.Update(tbl, engine.IntKey(i), engine.Row{engine.Int(i), engine.Str("PAID")})
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
		// The replica has applied nothing: the batch is still buffered.
		if shipped, applied := c.Replica(0).Stream.Counts(); shipped != 0 || applied != 0 {
			t.Errorf("pre-promotion stream counts shipped=%d applied=%d, want 0/0", shipped, applied)
		}
		c.InjectNodeCrash(p, c.RWMember(), storage.TornNone)
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if c.RW() != ro {
		t.Fatal("replica was not promoted")
	}
	for i := int64(1); i <= 5; i++ {
		row, _, ok := ro.DB.Table("orders").Get(engine.IntKey(i))
		if !ok || row[1].Str() != "PAID" {
			t.Fatalf("order %d missing on promoted RW: backlog lost across promotion", i)
		}
	}
}

// TestPartitionPromoteFencesOldPrimary: after a detector-driven promotion
// the partitioned old RW is still Running and still accepting transactions —
// but its commits must be refused by the epoch fence, while the new RW
// commits under the advanced epoch.
func TestPartitionPromoteFencesOldPrimary(t *testing.T) {
	s := sim.New(epoch)
	c := makeCluster(s, FailoverConfig{
		PromoteOnRWFailure: true,
		PreparePhase:       500 * time.Millisecond,
		SwitchPhase:        500 * time.Millisecond,
		RecoverPhase:       500 * time.Millisecond,
	}, 1)
	oldRW := c.RW()
	newRW := c.Replica(0).Node

	fence := storage.NewFence()
	fence.SetRecording(true)
	oldRW.SetFence(fence)
	newRW.SetFence(fence)
	oldRW.GrantEpoch(fence.Epoch())
	c.SetFence(fence)

	rwReachable := true
	c.SetReachable(func(n *node.Node) bool { return n != oldRW || rwReachable })
	c.StartDetector(DetectorConfig{
		Interval: 250 * time.Millisecond, Suspicion: 2, PromoteOnPartition: true,
	})

	commit := func(p *sim.Proc, n *node.Node, id int64) error {
		tx, err := n.Begin(p)
		if err != nil {
			return err
		}
		tx.Update(n.DB.Table("orders"), engine.IntKey(id), engine.Row{engine.Int(id), engine.Str("PAID")})
		return tx.Commit()
	}

	s.Go("ctl", func(p *sim.Proc) {
		if err := commit(p, oldRW, 1); err != nil {
			t.Errorf("pre-partition commit on RW failed: %v", err)
		}
		rwReachable = false
		p.Sleep(4 * time.Second) // detect + prepare + switch + recover
		if c.RW() != newRW {
			t.Error("replica not promoted during the partition")
		}
		// Old primary: alive behind the partition, still taking writes —
		// but fenced at storage.
		if err := commit(p, oldRW, 2); !errors.Is(err, node.ErrFenced) {
			t.Errorf("stale-epoch commit on old RW: err = %v, want ErrFenced", err)
		}
		if err := commit(p, newRW, 3); err != nil {
			t.Errorf("commit on promoted RW failed: %v", err)
		}
		rwReachable = true // heal; the detector grants the epoch on rejoin
		p.Sleep(time.Second)
		c.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fence.Epoch() != 2 {
		t.Fatalf("fence epoch = %d, want 2 after one fail-over", fence.Epoch())
	}
	if fence.Rejects() == 0 {
		t.Fatal("no fenced writes recorded")
	}
	if !timelineContains(c, "fence: epoch advanced to 2") {
		t.Fatalf("missing fence mark; timeline: %v", c.Timeline())
	}
	if !timelineContains(c, "partition healed: RO rejoined under epoch 2") {
		t.Fatalf("missing rejoin mark; timeline: %v", c.Timeline())
	}
	// The old primary rejoined under the new epoch: it may commit again.
	if oldRW.Epoch() != 2 {
		t.Fatalf("old RW epoch = %d after rejoin, want 2", oldRW.Epoch())
	}
	// The Figure 7 phases run in order after the fence mark, the same
	// sequence the crash path runs (TestPromoteFailoverSwitchesRoles).
	tl := c.Timeline()
	wantPhases := []string{"partition: RW suspected", "fence: epoch advanced to 2", "prepare", "switch-over", "recovering", "RW' serving", "partition healed"}
	if len(tl) < len(wantPhases) {
		t.Fatalf("timeline has %d events: %v", len(tl), tl)
	}
	for i, want := range wantPhases {
		if !strings.HasPrefix(tl[i].Phase, want) {
			t.Fatalf("timeline[%d] = %q, want prefix %q", i, tl[i].Phase, want)
		}
	}
	// Suspected at 2 missed 250ms heartbeats = 500ms; service restored after
	// prepare + switch + recover (3 × 500ms) = 2s.
	if tl[0].At != 500*time.Millisecond {
		t.Fatalf("RW suspected at %v, want 500ms", tl[0].At)
	}
	for _, ev := range tl {
		if ev.Phase == "RW' serving requests" && ev.At != 2*time.Second {
			t.Fatalf("RW' serving at %v, want 2s", ev.At)
		}
	}
}
