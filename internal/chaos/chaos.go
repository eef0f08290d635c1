// Package chaos injects faults into a simulated SUT cluster on a schedule
// compiled onto the virtual clock. Because the DES kernel is deterministic,
// a chaos run is exactly replayable: the same seed and schedule produce the
// same interleaving of faults and transactions, so a failure found once can
// be debugged forever.
//
// Every fault perturbs performance or availability, never correctness —
// stalled disks delay IO, error bursts reject requests (clients retry),
// killed nodes lose only what fsync had not made durable and recover from
// the log. The invariant checkers in internal/check must therefore PASS
// under any schedule; a FAIL means an engine bug, not an expected casualty
// of the fault. Faults model §II-E's self-healing failures extended to the
// messier failure modes real cloud databases are differentiated by.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cloudybench/internal/cluster"
	"cloudybench/internal/engine"
	"cloudybench/internal/netsim"
	"cloudybench/internal/node"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// Kind identifies a fault type.
type Kind string

// Fault kinds.
const (
	// DiskStall blocks the target node's backend page IO for the event
	// duration (a hung NVMe device or a storage-service brownout).
	DiskStall Kind = "disk-stall"
	// IOErrorBurst makes a fraction (Rate) of the target node's requests
	// fail with node.ErrIOFault for the duration; clients back off and
	// retry.
	IOErrorBurst Kind = "io-error-burst"
	// LinkDegrade adds ExtraLatency to every deployment link and scales
	// bandwidth by BWFactor for the duration (congested or flapping
	// fabric).
	LinkDegrade Kind = "link-degrade"
	// NodePause freezes the target node for the duration (VM live
	// migration, long GC pause): requests block rather than error, then
	// resume.
	NodePause Kind = "node-pause"
	// CacheDrop evicts every 2nd resident page of the target node's buffer
	// pool (an eviction storm), forcing re-fetch traffic.
	CacheDrop Kind = "cache-drop"
	// Partition symmetrically cuts every network path from GroupA endpoints
	// to GroupB endpoints (and back). With a positive Duration the cut
	// auto-heals; with zero Duration it stays until an explicit Heal event.
	Partition Kind = "partition"
	// AsymPartition cuts only GroupA -> GroupB (a gray failure: the primary
	// can still hear the cluster but not answer it, or vice versa).
	AsymPartition Kind = "asym-partition"
	// Heal removes the cuts between GroupA and GroupB, or every active cut
	// when both groups are empty.
	Heal Kind = "heal"
	// DelaySpike degrades every link between GroupA and GroupB with
	// ExtraLatency and BWFactor for the duration — packets are late, not
	// lost.
	DelaySpike Kind = "delay-spike"
	// NodeCrash kills the target node outright: its WAL keeps only what
	// fsync made durable (the in-flight record torn per Torn), every
	// volatile structure dies, and the cluster drives real crash recovery —
	// ARIES redo/undo for an RW, promote-and-seed for switch-over
	// architectures, durable-log resync for an RO. Recovery time is
	// emergent from the log.
	NodeCrash Kind = "node-crash"
)

// Event is one scheduled fault.
type Event struct {
	// At is the virtual-time offset of injection (from schedule start).
	At time.Duration
	// Kind selects the fault; Duration its active window (ignored by
	// NodeCrash and CacheDrop, which are instantaneous injections whose
	// recovery the cluster controls).
	Kind     Kind
	Duration time.Duration
	// Target names a node: "rw" or "roN". Ignored by LinkDegrade.
	Target string
	// Rate is the IOErrorBurst failure probability.
	Rate float64
	// ExtraLatency / BWFactor parameterize LinkDegrade and DelaySpike.
	ExtraLatency time.Duration
	BWFactor     float64
	// GroupA / GroupB name the endpoint groups of Partition, AsymPartition,
	// Heal, and DelaySpike events (netsim.Net endpoint names).
	GroupA, GroupB []string
	// Torn selects how a NodeCrash mangles the WAL record mid-write at the
	// crash instant (recovery must detect and truncate the damage).
	Torn storage.TornMode
}

// Schedule is a set of fault events. Events may overlap.
type Schedule struct {
	Events []Event
}

// Standard returns the canonical chaos schedule scaled onto a run window:
// the faults that degrade a node without killing it (node kills belong to
// the durability gauntlet), placed at fixed fractions of the span so any
// measurement duration exercises the full gauntlet.
func Standard(span time.Duration) Schedule {
	frac := func(f float64) time.Duration { return time.Duration(float64(span) * f) }
	return Schedule{Events: []Event{
		{At: frac(0.10), Kind: DiskStall, Duration: frac(0.05), Target: "rw"},
		{At: frac(0.20), Kind: CacheDrop, Target: "rw"},
		{At: frac(0.30), Kind: LinkDegrade, Duration: frac(0.10), ExtraLatency: 200 * time.Microsecond, BWFactor: 0.25},
		{At: frac(0.45), Kind: IOErrorBurst, Duration: frac(0.08), Target: "rw", Rate: 0.3},
		{At: frac(0.75), Kind: NodePause, Duration: frac(0.04), Target: "rw"},
		{At: frac(0.85), Kind: DiskStall, Duration: frac(0.05), Target: "ro0"},
	}}
}

// Targets is the fault surface of one deployment.
type Targets struct {
	Cluster *cluster.Cluster
	Links   []*netsim.Link
	// Net is the deployment's endpoint registry, required by partition,
	// heal, and delay-spike events.
	Net *netsim.Net
	// Seed drives the IO-error-burst coin flips (deterministic per node).
	Seed int64
}

// Applied is the log entry of one injected fault.
type Applied struct {
	At     time.Duration
	Kind   Kind
	Target string
}

// CrashOutcome is the recovery record of one NodeCrash event: the stats of
// the ARIES pass that restored the node (zero for a promote-on-failure
// switch-over, where the crashed primary's recovery runs as the rejoin) and
// the error if recovery failed.
type CrashOutcome struct {
	At     time.Duration
	Target string
	Stats  engine.RecoveryStats
	Err    string
}

// Injector executes a schedule against a deployment.
type Injector struct {
	s       *sim.Sim
	sched   Schedule
	targets Targets

	applied []Applied
	crashes []CrashOutcome
}

// NewInjector binds a schedule to a deployment's fault surface, validating
// every event against it first: a malformed schedule (negative times, rates
// outside [0,1], unknown targets or endpoints) is a returned error, not a
// silently skipped fault.
func NewInjector(s *sim.Sim, sched Schedule, t Targets) (*Injector, error) {
	inj := &Injector{s: s, sched: sched, targets: t}
	if err := Validate(sched, t); err != nil {
		return nil, err
	}
	return inj, nil
}

// Validate checks a schedule against a fault surface without running it.
func Validate(sched Schedule, t Targets) error {
	lookup := func(target string) *cluster.Member {
		if t.Cluster == nil {
			return nil
		}
		return (&Injector{targets: t}).member(target)
	}
	for i, ev := range sched.Events {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("chaos: event %d (%s@%v): %s", i, ev.Kind, ev.At, fmt.Sprintf(format, args...))
		}
		if ev.At < 0 {
			return fail("negative At")
		}
		if ev.Duration < 0 {
			return fail("negative Duration")
		}
		if ev.Rate < 0 || ev.Rate > 1 {
			return fail("Rate %v outside [0,1]", ev.Rate)
		}
		switch ev.Kind {
		case DiskStall, IOErrorBurst, NodePause, CacheDrop, NodeCrash:
			if lookup(ev.Target) == nil {
				return fail("unknown node target %q", ev.Target)
			}
		case LinkDegrade:
			// Applies to all deployment links; nothing to resolve.
		case Partition, AsymPartition, DelaySpike:
			if t.Net == nil {
				return fail("requires a Net (no endpoint registry on the fault surface)")
			}
			if len(ev.GroupA) == 0 || len(ev.GroupB) == 0 {
				return fail("both endpoint groups must be non-empty")
			}
			if err := knownEndpoints(t.Net, ev.GroupA, ev.GroupB); err != nil {
				return fail("%v", err)
			}
		case Heal:
			if t.Net == nil {
				return fail("requires a Net (no endpoint registry on the fault surface)")
			}
			if (len(ev.GroupA) == 0) != (len(ev.GroupB) == 0) {
				return fail("heal groups must be both empty (heal all) or both non-empty")
			}
			if err := knownEndpoints(t.Net, ev.GroupA, ev.GroupB); err != nil {
				return fail("%v", err)
			}
		default:
			return fail("unknown fault kind")
		}
	}
	return nil
}

func knownEndpoints(net *netsim.Net, groups ...[]string) error {
	for _, g := range groups {
		for _, name := range g {
			if !net.HasEndpoint(name) {
				return fmt.Errorf("unknown endpoint %q", name)
			}
		}
	}
	return nil
}

// Start spawns one injector process per event, in stable (At, declaration)
// order so same-instant events always fire in declaration order. Events
// fire at their scheduled virtual times regardless of each other; overlaps
// compose.
func (inj *Injector) Start() {
	events := append([]Event(nil), inj.sched.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	for i := range events {
		ev := events[i]
		name := fmt.Sprintf("chaos/%s@%v", ev.Kind, ev.At)
		inj.s.Go(name, func(p *sim.Proc) {
			p.Sleep(ev.At)
			inj.fire(p, ev)
		})
	}
}

// Applied returns the log of injected faults in firing order; a nil
// injector (a run without a schedule) applied none.
func (inj *Injector) Applied() []Applied {
	if inj == nil {
		return nil
	}
	return inj.applied
}

// Crashes returns the recovery outcomes of fired NodeCrash events, in
// firing order.
func (inj *Injector) Crashes() []CrashOutcome { return inj.crashes }

// member resolves an event target against the cluster.
func (inj *Injector) member(target string) *cluster.Member {
	if target == "rw" {
		return inj.targets.Cluster.RWMember()
	}
	var idx int
	if _, err := fmt.Sscanf(target, "ro%d", &idx); err != nil {
		return nil
	}
	return inj.targets.Cluster.Replica(idx)
}

func (inj *Injector) fire(p *sim.Proc, ev Event) {
	target := ev.Target
	if len(ev.GroupA) > 0 || len(ev.GroupB) > 0 {
		target = strings.Join(ev.GroupA, ",") + "|" + strings.Join(ev.GroupB, ",")
	}
	inj.applied = append(inj.applied, Applied{At: p.Elapsed(), Kind: ev.Kind, Target: target})
	switch ev.Kind {
	case DiskStall:
		if m := inj.member(ev.Target); m != nil {
			m.Node.InjectIOStall(p.Elapsed() + ev.Duration)
		}
	case IOErrorBurst:
		if m := inj.member(ev.Target); m != nil {
			m.Node.SetIOErrorRate(ev.Rate, inj.targets.Seed)
			p.Sleep(ev.Duration)
			m.Node.SetIOErrorRate(0, 0)
		}
	case NodeCrash:
		if m := inj.member(ev.Target); m != nil {
			// Reserve the outcome slot up front so Crashes() lists kills in
			// firing order, not in completion order (a long recovery would
			// otherwise reorder behind later skipped kills).
			idx := len(inj.crashes)
			inj.crashes = append(inj.crashes, CrashOutcome{At: p.Elapsed(), Target: ev.Target})
			st, err := inj.targets.Cluster.InjectNodeCrash(p, m, ev.Torn)
			inj.crashes[idx].Stats = st
			if err != nil {
				inj.crashes[idx].Err = err.Error()
			}
		}
	case LinkDegrade:
		for _, l := range inj.targets.Links {
			l.Degrade(ev.ExtraLatency, ev.BWFactor)
		}
		p.Sleep(ev.Duration)
		for _, l := range inj.targets.Links {
			l.Restore()
		}
	case NodePause:
		if m := inj.member(ev.Target); m != nil && m.Node.State() == node.Running {
			// Stash the serverless resume hook so the autoscaler cannot cut
			// the pause short; requests block on the paused state.
			resume := m.Node.OnResumeNeeded
			m.Node.OnResumeNeeded = nil
			m.Node.SetState(node.Paused)
			p.Sleep(ev.Duration)
			m.Node.SetState(node.Running)
			m.Node.OnResumeNeeded = resume
		}
	case CacheDrop:
		if m := inj.member(ev.Target); m != nil {
			m.Node.Buf.DropEvery(2)
		}
	case Partition:
		inj.targets.Net.Partition(ev.GroupA, ev.GroupB, true)
		if ev.Duration > 0 {
			p.Sleep(ev.Duration)
			inj.targets.Net.Heal(ev.GroupA, ev.GroupB)
		}
	case AsymPartition:
		inj.targets.Net.Partition(ev.GroupA, ev.GroupB, false)
		if ev.Duration > 0 {
			p.Sleep(ev.Duration)
			inj.targets.Net.Heal(ev.GroupA, ev.GroupB)
		}
	case Heal:
		if len(ev.GroupA) == 0 && len(ev.GroupB) == 0 {
			inj.targets.Net.HealAll()
		} else {
			inj.targets.Net.Heal(ev.GroupA, ev.GroupB)
		}
	case DelaySpike:
		inj.targets.Net.Spike(ev.GroupA, ev.GroupB, ev.ExtraLatency, ev.BWFactor)
		p.Sleep(ev.Duration)
		inj.targets.Net.Unspike(ev.GroupA, ev.GroupB)
	}
}
