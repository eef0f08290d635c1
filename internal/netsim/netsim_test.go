package netsim

import (
	"testing"
	"time"

	"cloudybench/internal/sim"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestFabricLatencyOrdering(t *testing.T) {
	if !(DefaultLatency(Local) < DefaultLatency(RDMA) && DefaultLatency(RDMA) < DefaultLatency(TCP)) {
		t.Fatal("latency ordering should be local < rdma < tcp")
	}
}

func TestSendPaysLatencyAndBandwidth(t *testing.T) {
	s := sim.New(epoch)
	// 0.008 Gbps = 1e6 bytes/sec, so 1e6 bytes takes 1 second of bandwidth.
	l := NewLink(s, TCP, 0.008)
	l.latency = 50 * time.Millisecond
	var d time.Duration
	s.Go("sender", func(p *sim.Proc) {
		d = l.Send(p, 1_000_000)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := time.Second + 50*time.Millisecond
	if d != want {
		t.Fatalf("send delay = %v, want %v", d, want)
	}
	if l.BytesSent() != 1_000_000 {
		t.Fatalf("bytes sent = %d", l.BytesSent())
	}
}

func TestConcurrentSendersShareBandwidth(t *testing.T) {
	s := sim.New(epoch)
	l := NewLink(s, TCP, 0.008) // 1e6 B/s
	l.latency = 0
	var d1, d2 time.Duration
	s.Go("a", func(p *sim.Proc) { d1 = l.Send(p, 1_000_000) })
	s.Go("b", func(p *sim.Proc) { d2 = l.Send(p, 1_000_000) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if d1 != time.Second {
		t.Fatalf("first transfer = %v, want 1s", d1)
	}
	if d2 != 2*time.Second {
		t.Fatalf("queued transfer = %v, want 2s", d2)
	}
}

func TestUnconstrainedBandwidthPaysLatencyOnly(t *testing.T) {
	s := sim.New(epoch)
	l := NewLink(s, RDMA, 0)
	var d time.Duration
	s.Go("p", func(p *sim.Proc) {
		d = l.Send(p, 1<<30)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if d != DefaultLatency(RDMA) {
		t.Fatalf("delay = %v, want latency-only %v", d, DefaultLatency(RDMA))
	}
}

func TestNegativeBytesClamped(t *testing.T) {
	s := sim.New(epoch)
	l := NewLink(s, TCP, 1)
	s.Go("p", func(p *sim.Proc) {
		l.Send(p, -5)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if l.BytesSent() != 0 {
		t.Fatalf("bytes sent = %d, want 0", l.BytesSent())
	}
}
