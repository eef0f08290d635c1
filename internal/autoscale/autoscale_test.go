package autoscale

import (
	"testing"
	"time"

	"cloudybench/internal/node"
	"cloudybench/internal/sim"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func makeNode(s *sim.Sim, vcores float64) *node.Node {
	return node.New(s, node.Config{
		Name: "n", VCores: vcores, MemoryBytes: 1 << 30,
		OpCPU: time.Millisecond, TxnCPU: 0,
	}, node.NullBackend{})
}

// drive runs `workers` closed-loop CPU burners for d, then stops.
func drive(s *sim.Sim, n *node.Node, workers int, d time.Duration) *sim.Group {
	g := sim.NewGroup(s)
	for i := 0; i < workers; i++ {
		g.Go("w", func(p *sim.Proc) {
			start := p.Elapsed()
			for p.Elapsed()-start < d {
				n.ChargeCPU(p, time.Millisecond)
			}
		})
	}
	return g
}

func TestScaleUpUnderPressure(t *testing.T) {
	s := sim.New(epoch)
	n := makeNode(s, 1)
	a := New(s, n, Config{
		MinVCores: 1, MaxVCores: 4, Tick: 2 * time.Second, Up: UpDouble,
	})
	drive(s, n, 16, 30*time.Second)
	s.Go("stopper", func(p *sim.Proc) {
		p.Sleep(31 * time.Second)
		a.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n.VCores() != 4 {
		t.Fatalf("vcores after sustained pressure = %v, want 4 (max)", n.VCores())
	}
}

func TestGradualDownIsSlow(t *testing.T) {
	s := sim.New(epoch)
	n := makeNode(s, 4)
	a := New(s, n, Config{
		MinVCores: 1, MaxVCores: 4, Tick: 5 * time.Second,
		GradualDown: true, DownStep: 0.25, DownHold: 10 * time.Second,
	})
	// No load at all: utilization 0 from the start.
	s.Go("stopper", func(p *sim.Proc) {
		p.Sleep(3 * time.Minute)
		a.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n.VCores() != 1 {
		t.Fatalf("vcores after long idle = %v, want min 1", n.VCores())
	}
	// Gradual: 4 -> 1 in 0.25 steps at 5s cadence (after 10s hold) means
	// the descent alone takes ~60s; check the series was still above 2
	// vCores at t=30s.
	if got := n.Cores.At(30 * time.Second); got <= 2 {
		t.Fatalf("cores at 30s = %v, want > 2 (gradual descent)", got)
	}
}

func TestOnDemandDownIsFast(t *testing.T) {
	s := sim.New(epoch)
	n := makeNode(s, 4)
	a := New(s, n, Config{
		MinVCores: 0.5, MaxVCores: 4, Granularity: 0.5,
		Tick: 30 * time.Second, Up: UpToDemand,
	})
	s.Go("stopper", func(p *sim.Proc) {
		p.Sleep(2 * time.Minute)
		a.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n.VCores() != 0.5 {
		t.Fatalf("vcores = %v, want 0.5 floor", n.VCores())
	}
	// Must have dropped within ~1 tick: check at 45s.
	if got := n.Cores.At(45 * time.Second); got != 0.5 {
		t.Fatalf("cores at 45s = %v, want 0.5 (on-demand down)", got)
	}
}

func TestPauseAfterIdleAndResumeOnDemand(t *testing.T) {
	s := sim.New(epoch)
	n := makeNode(s, 1)
	a := New(s, n, Config{
		MinVCores: 0.25, MaxVCores: 4, Granularity: 0.25,
		Tick: 10 * time.Second, Up: UpToDemand,
		PauseAfterIdle: 30 * time.Second, ResumeDelay: time.Second,
	})
	var pausedObserved bool
	var resumedAt time.Duration
	s.Go("client", func(p *sim.Proc) {
		// Idle for 2 minutes: node should pause.
		p.Sleep(2 * time.Minute)
		if n.State() == node.Paused && n.VCores() == 0 {
			pausedObserved = true
		}
		// A request arrives: must cold-start and serve.
		if err := n.AwaitRunning(p); err != nil {
			t.Error(err)
			return
		}
		resumedAt = p.Elapsed()
		a.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !pausedObserved {
		t.Fatal("node never paused while idle")
	}
	if resumedAt < 2*time.Minute+time.Second {
		t.Fatalf("resume at %v, want >= 2m1s (cold start)", resumedAt)
	}
	if n.State() != node.Running || n.VCores() == 0 {
		t.Fatal("node not running after resume")
	}
}

func TestScaleEventsTrackMemory(t *testing.T) {
	s := sim.New(epoch)
	n := makeNode(s, 1)
	a := New(s, n, Config{
		MinVCores: 1, MaxVCores: 4, Tick: 2 * time.Second, Up: UpDouble,
		MemBytesPerCore: 2 << 30,
	})
	drive(s, n, 16, 20*time.Second)
	s.Go("stopper", func(p *sim.Proc) {
		p.Sleep(21 * time.Second)
		a.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n.MemoryBytes() != 8<<30 {
		t.Fatalf("memory = %d, want 8GB at 4 cores", n.MemoryBytes())
	}
	if got := n.Mem.At(25 * time.Second); got != 8 {
		t.Fatalf("mem series = %v GB", got)
	}
}

func TestRoundGranularityAndClamp(t *testing.T) {
	a := &Autoscaler{cfg: Config{MinVCores: 0.5, MaxVCores: 4, Granularity: 0.25}}
	cases := []struct{ in, want float64 }{
		{0.1, 0.5},  // clamped to min
		{0.6, 0.75}, // rounded up to granularity
		{3.9, 4},
		{9, 4}, // clamped to max
		{1.0, 1.0},
	}
	for _, c := range cases {
		if got := a.round(c.in); got != c.want {
			t.Errorf("round(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
