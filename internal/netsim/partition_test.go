package netsim

import (
	"testing"
	"time"

	"cloudybench/internal/sim"
)

func TestCutBlocksSendUntilHeal(t *testing.T) {
	s := sim.New(epoch)
	l := NewLink(s, TCP, 0)
	l.latency = time.Millisecond
	l.Cut()
	var done time.Duration
	s.Go("sender", func(p *sim.Proc) {
		l.Send(p, 100)
		done = p.Elapsed()
	})
	s.Go("healer", func(p *sim.Proc) {
		p.Sleep(5 * time.Second)
		l.Heal()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 5*time.Second + time.Millisecond; done != want {
		t.Fatalf("send completed at %v, want %v (blocked until heal + latency)", done, want)
	}
}

func TestUnhealedCutIsADrainDeadlock(t *testing.T) {
	s := sim.New(epoch)
	l := NewLink(s, TCP, 0)
	l.Cut()
	s.Go("sender", func(p *sim.Proc) { l.Send(p, 1) })
	if err := s.Run(); err == nil {
		t.Fatal("sender blocked forever on a cut link should surface as a deadlock error")
	}
}

func TestNetSymmetricPartitionAndHeal(t *testing.T) {
	s := sim.New(epoch)
	n := NewNet()
	ab := NewLink(s, TCP, 0)
	ba := NewLink(s, TCP, 0)
	n.Register("a", "b", ab)
	n.Register("b", "a", ba)
	n.Partition([]string{"a"}, []string{"b"}, true)
	if !ab.cut || !ba.cut {
		t.Fatal("symmetric partition should cut both directions")
	}
	if n.Reachable("a", "b") || n.Reachable("b", "a") {
		t.Fatal("reachability should reflect the cut")
	}
	if !n.Reachable("a", "a") {
		t.Fatal("endpoints always reach themselves")
	}
	n.Heal([]string{"a"}, []string{"b"})
	if ab.cut || ba.cut || len(n.cut) > 0 {
		t.Fatal("heal should clear both directions")
	}
}

func TestNetAsymmetricPartitionCutsOneDirection(t *testing.T) {
	s := sim.New(epoch)
	n := NewNet()
	ab := NewLink(s, TCP, 0)
	ba := NewLink(s, TCP, 0)
	n.Register("a", "b", ab)
	n.Register("b", "a", ba)
	n.Partition([]string{"a"}, []string{"b"}, false)
	if !ab.cut {
		t.Fatal("a->b should be cut")
	}
	if ba.cut {
		t.Fatal("b->a must stay up in an asymmetric partition")
	}
	if n.Reachable("a", "b") || !n.Reachable("b", "a") {
		t.Fatal("reachability should be one-way")
	}
}

func TestNetRegisterDuringActiveCutSeversNewLink(t *testing.T) {
	s := sim.New(epoch)
	n := NewNet()
	n.AddEndpoint("a")
	n.AddEndpoint("b")
	n.Partition([]string{"a"}, []string{"b"}, true)
	l := NewLink(s, TCP, 0)
	n.Register("a", "b", l)
	if !l.cut {
		t.Fatal("a link registered inside an active partition must arrive severed")
	}
	n.HealAll()
	if l.cut || len(n.cut) > 0 {
		t.Fatal("HealAll should clear everything")
	}
}

func TestNetSpikeDegradesLinksBetweenGroups(t *testing.T) {
	s := sim.New(epoch)
	n := NewNet()
	ab := NewLink(s, TCP, 0)
	cd := NewLink(s, TCP, 0)
	n.Register("a", "b", ab)
	n.Register("c", "d", cd)
	n.Spike([]string{"a"}, []string{"b"}, 10*time.Millisecond, 1)
	if !ab.degraded {
		t.Fatal("spiked link should be degraded")
	}
	if cd.degraded {
		t.Fatal("spike must only touch links between the named groups")
	}
	n.Unspike([]string{"a"}, []string{"b"})
	if ab.degraded {
		t.Fatal("unspike should restore the link")
	}
}

func TestNetEndpointBookkeeping(t *testing.T) {
	n := NewNet()
	n.AddEndpoint("client")
	n.AddEndpoint("client") // idempotent
	if !n.HasEndpoint("client") || n.HasEndpoint("ctrl") {
		t.Fatal("endpoint lookup wrong")
	}
	if got := len(n.endpoints); got != 1 {
		t.Fatalf("endpoint count = %d, want 1", got)
	}
}
