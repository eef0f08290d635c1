// Package autoscale implements the serverless scaling policies the paper
// observes on the SUTs (§III-C, Table VI):
//
//   - CDB1: scales up immediately when usage hits a built-in threshold but
//     scales down *gradually* — small steps on a slow cadence — which is why
//     the paper measures 14 s up but 479 s down for the single-peak pattern
//     and attributes CDB1's high elasticity cost to charging during the
//     long descent.
//   - CDB2: on-demand scaling in both directions at a ~30 s cadence with a
//     0.5 vCore floor.
//   - CDB3: capacity-unit (CU) scaling at a ~60 s cadence in 0.25 CU
//     increments, plus pause-and-resume — it scales to zero when idle and
//     cold-starts on the first arriving request.
//
// One Autoscaler type expresses all three through its Config; RDS and CDB4
// simply run without one (fixed provisioning).
package autoscale

import (
	"time"

	"cloudybench/internal/node"
	"cloudybench/internal/sim"
)

// upThreshold is the utilization that triggers scale-up on every policy.
const upThreshold = 0.8

// UpMode selects the scale-up behaviour.
type UpMode int

// Scale-up modes.
const (
	// UpDouble doubles allocation each tick under pressure (threshold
	// triggered, converges in a few ticks — CDB1-style "immediate").
	UpDouble UpMode = iota
	// UpToDemand sets allocation to the measured demand each tick
	// (on-demand scaling, CDB2/CDB3).
	UpToDemand
)

// Config parameterizes a policy.
type Config struct {
	MinVCores float64
	MaxVCores float64
	// Granularity rounds allocations (0.25 for CDB3's quarter-CU, 0.5 for
	// CDB2's half-vCore; 0 = no rounding).
	Granularity float64
	// MemBytesPerCore scales buffer memory with compute.
	MemBytesPerCore int64
	// Tick is the evaluation cadence.
	Tick time.Duration
	// DownThreshold is the utilization below which down-scaling begins.
	DownThreshold float64
	Up            UpMode
	// GradualDown, when set, steps down by DownStep every DownEvery
	// (default Tick) instead of dropping straight to demand — CDB1's slow
	// descent, which takes ~8 minutes from full size (Table VI's 479 s).
	GradualDown bool
	DownStep    float64
	DownEvery   time.Duration
	// DownHold is how long utilization must stay below DownThreshold
	// before any down-scaling starts.
	DownHold time.Duration
	// PauseAfterIdle scales to zero and pauses the node after this long
	// with no demand (0 disables — only CDB3 pauses).
	PauseAfterIdle time.Duration
	// ResumeDelay is the cold-start time when a request arrives at a
	// paused node.
	ResumeDelay time.Duration
}

// Autoscaler drives one node's allocation from its observed utilization.
type Autoscaler struct {
	s    *sim.Sim
	n    *node.Node
	cfg  Config
	stop bool

	lastUsedInt float64
	lastTick    time.Duration
	lowSince    time.Duration
	idleSince   time.Duration
	lastDown    time.Duration
	resuming    bool
	demandCores float64 // average used cores over the last tick window
}

// New starts an autoscaler for the node and registers the resume hook.
func New(s *sim.Sim, n *node.Node, cfg Config) *Autoscaler {
	if cfg.Tick <= 0 {
		cfg.Tick = 15 * time.Second
	}
	if cfg.DownThreshold <= 0 {
		cfg.DownThreshold = 0.5
	}
	a := &Autoscaler{s: s, n: n, cfg: cfg, lowSince: -1, idleSince: -1}
	n.OnResumeNeeded = a.RequestResume
	s.Go("autoscaler/"+n.Name, a.loop)
	return a
}

// Stop terminates the background loop at its next tick.
func (a *Autoscaler) Stop() { a.stop = true }

func (a *Autoscaler) round(v float64) float64 {
	if a.cfg.Granularity > 0 {
		steps := int(v/a.cfg.Granularity + 0.999999)
		v = float64(steps) * a.cfg.Granularity
	}
	if v < a.cfg.MinVCores {
		v = a.cfg.MinVCores
	}
	if v > a.cfg.MaxVCores {
		v = a.cfg.MaxVCores
	}
	return v
}

func (a *Autoscaler) apply(p *sim.Proc, cores float64) {
	if cores == a.n.VCores() {
		return
	}
	at := a.s.Elapsed()
	a.n.SetVCores(at, cores)
	if a.cfg.MemBytesPerCore > 0 {
		a.n.SetMemoryBytes(p, at, int64(cores*float64(a.cfg.MemBytesPerCore)))
	}
}

// utilization returns (avg utilization over the window, current waiters).
func (a *Autoscaler) utilization() (float64, int) {
	usedInt, _ := a.n.CPU().Integrals()
	now := a.s.Elapsed()
	window := (now - a.lastTick).Seconds()
	var util float64
	capMilli := float64(a.n.CPU().Capacity())
	if window > 0 && capMilli > 0 {
		util = (usedInt - a.lastUsedInt) / window / capMilli
	}
	avgUsed := 0.0
	if window > 0 {
		avgUsed = (usedInt - a.lastUsedInt) / window / node.MilliPerCore
	}
	a.lastUsedInt = usedInt
	a.lastTick = now
	a.demandCores = avgUsed
	return util, a.n.CPU().Waiting()
}

func (a *Autoscaler) loop(p *sim.Proc) {
	a.lastTick = a.s.Elapsed()
	for !a.stop {
		p.Sleep(a.cfg.Tick)
		if a.stop {
			return
		}
		if a.n.State() == node.Paused || a.resuming {
			a.utilization() // keep the observation window from spanning the pause
			continue
		}
		now := a.s.Elapsed()
		util, waiting := a.utilization()
		cores := a.n.VCores()

		pressured := util >= upThreshold || waiting > 0
		switch {
		case pressured:
			a.lowSince = -1
			a.idleSince = -1
			var target float64
			if a.cfg.Up == UpDouble {
				target = cores * 2
				if target == 0 {
					target = a.cfg.MinVCores
				}
			} else {
				// Demand-proportional: aim for ~70% utilization of the
				// new allocation. Hard saturation (queued work) doubles,
				// since observed usage is capacity-clamped and says
				// nothing about true demand; the band then settles the
				// allocation back onto measured demand.
				target = a.demandCores / 0.7
				if waiting > 0 && target < cores*2 {
					target = cores * 2
				}
			}
			a.apply(p, a.round(target))

		case util < a.cfg.DownThreshold:
			if a.lowSince < 0 {
				a.lowSince = now
			}
			idle := a.demandCores < 0.01 && waiting == 0
			if idle {
				if a.idleSince < 0 {
					a.idleSince = now
				}
			} else {
				a.idleSince = -1
			}
			// Pause-and-resume takes precedence once idle long enough.
			if a.cfg.PauseAfterIdle > 0 && idle && now-a.idleSince >= a.cfg.PauseAfterIdle {
				a.pause(p)
				continue
			}
			if now-a.lowSince < a.cfg.DownHold {
				continue
			}
			if a.cfg.GradualDown {
				every := a.cfg.DownEvery
				if every <= 0 {
					every = a.cfg.Tick
				}
				if now-a.lastDown >= every {
					a.apply(p, a.round(cores-a.cfg.DownStep))
					a.lastDown = now
				}
			} else {
				a.apply(p, a.round(a.demandCores/0.7))
			}

		default:
			a.lowSince = -1
			a.idleSince = -1
		}
	}
}

func (a *Autoscaler) pause(p *sim.Proc) {
	a.n.SetVCores(a.s.Elapsed(), 0)
	if a.cfg.MemBytesPerCore > 0 {
		a.n.SetMemoryBytes(p, a.s.Elapsed(), 0)
	}
	a.n.SetState(node.Paused)
	a.lowSince = -1
	a.idleSince = -1
}

// RequestResume is invoked by the node when a request arrives while paused.
// It cold-starts the node after ResumeDelay at the minimum allocation.
func (a *Autoscaler) RequestResume() {
	if a.resuming || a.n.State() != node.Paused {
		return
	}
	a.resuming = true
	a.s.Go("resume/"+a.n.Name, func(p *sim.Proc) {
		p.Sleep(a.cfg.ResumeDelay)
		at := a.s.Elapsed()
		min := a.cfg.MinVCores
		if min <= 0 {
			min = a.cfg.Granularity
		}
		if min <= 0 {
			min = 0.25
		}
		a.n.SetVCores(at, min)
		if a.cfg.MemBytesPerCore > 0 {
			a.n.SetMemoryBytes(p, at, int64(min*float64(a.cfg.MemBytesPerCore)))
		}
		a.n.SetState(node.Running)
		a.resuming = false
	})
}
