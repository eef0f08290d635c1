package cluster

import (
	"fmt"
	"time"

	"cloudybench/internal/node"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// DetectorConfig calibrates the deterministic failure detector: the control
// plane heartbeats every member over the "ctrl" network path on virtual
// time, and accumulates phi-style suspicion — a member is suspected once it
// has missed Suspicion heartbeat intervals in a row (the accrual detector's
// threshold collapsed onto a deterministic clock).
type DetectorConfig struct {
	// Interval is the heartbeat period.
	Interval time.Duration
	// Suspicion is the phi-style threshold in units of Interval: a member
	// unreachable for Suspicion*Interval is declared suspected.
	Suspicion float64
	// PromoteOnPartition, when true, lets a suspected RW trigger automated
	// lease-fenced promotion of a reachable RO. When false (RDS: no
	// promotable shared-storage replica) the cluster waits for the
	// partition to heal and then restarts the primary in place.
	PromoteOnPartition bool
}

// Enabled reports whether the config describes a runnable detector.
func (d DetectorConfig) Enabled() bool { return d.Interval > 0 }

// SetReachable installs the control plane's reachability oracle (typically
// wired to netsim.Net over the "ctrl" endpoint). Nil means always reachable.
func (c *Cluster) SetReachable(f func(*node.Node) bool) { c.reachable = f }

func (c *Cluster) nodeReachable(n *node.Node) bool {
	if c.reachable == nil {
		return true
	}
	return c.reachable(n)
}

// StartDetector launches the failure-detector process. It heartbeats every
// member each Interval and reacts to suspicion: a suspected RW triggers
// automated promotion (or await-heal-and-restart, per the config); a healed
// member rejoins under the current lease epoch. Call StopDetector (or
// Shutdown) before draining the simulation.
func (c *Cluster) StartDetector(cfg DetectorConfig) {
	if !cfg.Enabled() || c.detOn {
		return
	}
	c.detCfg = cfg
	c.detStop = false
	c.detOn = true
	c.S.Go(c.Name+"/detector", c.detectorLoop)
}

// StopDetector asks the detector to exit at its next heartbeat tick.
func (c *Cluster) StopDetector() { c.detStop = true }

func (c *Cluster) detectorLoop(p *sim.Proc) {
	type hbState struct {
		lastAck   time.Duration
		suspected bool
	}
	states := make([]hbState, len(c.members))
	now := c.S.Elapsed()
	for i := range states {
		states[i].lastAck = now
	}
	threshold := time.Duration(float64(c.detCfg.Interval) * c.detCfg.Suspicion)
	for !c.detStop {
		p.Sleep(c.detCfg.Interval)
		if c.detStop {
			return
		}
		now = c.S.Elapsed()
		for i, m := range c.members {
			st := &states[i]
			if c.nodeReachable(m.Node) {
				st.lastAck = now
				if st.suspected {
					st.suspected = false
					c.onRejoin(m)
				}
				continue
			}
			if !st.suspected && now-st.lastAck >= threshold {
				st.suspected = true
				c.onSuspect(p, m)
			}
		}
	}
}

// onSuspect reacts to a freshly suspected member. A suspected RW drives the
// fail-over; a suspected RO is only recorded — the resilient client's
// breakers and reroute handle read traffic around it.
func (c *Cluster) onSuspect(p *sim.Proc, m *Member) {
	c.mark(fmt.Sprintf("partition: %s suspected", m.Role))
	if m.Role != RW {
		return
	}
	if !c.detCfg.PromoteOnPartition {
		// No promotable replica (restart-in-place architectures): the
		// control plane can only wait for the partition to heal and then
		// bounce the primary — the blunt recovery that shows up as a large
		// MTTR.
		c.mark("partition: awaiting heal (restart-in-place)")
		c.bounceAfterHeal(p, m)
		return
	}
	target := c.firstReachableRO()
	if target == nil {
		// Nothing to promote onto: behave like a restart-in-place
		// architecture — wait out the partition, then bounce the primary.
		c.mark("partition: no reachable RO, awaiting heal")
		c.bounceAfterHeal(p, m)
		return
	}
	// Fail over away from a partitioned-but-possibly-alive RW. It is not
	// shut down: it is unreachable, still Running, and possibly still
	// accepting client traffic; the fence advanced here is what makes that
	// harmless.
	var epoch uint64
	if c.fence != nil {
		epoch = c.fence.Advance(c.S.Elapsed())
		c.mark(fmt.Sprintf("fence: epoch advanced to %d", epoch))
	}
	// No WAL seed: a seed is the durable-log image a crash leaves behind,
	// and this primary has not crashed. It is still running, fenced, with
	// a live log that no crash has cut to a durable point.
	c.promote(p, m, target, epoch, nil)
}

// bounceAfterHeal waits until the control plane reaches the primary again,
// then kills it and restarts it through real crash recovery — the same path
// InjectNodeCrash takes, minus the detection delay the partition already
// paid. A primary that is no longer running is left to whoever stopped it.
func (c *Cluster) bounceAfterHeal(p *sim.Proc, m *Member) {
	c.awaitReachable(p, m)
	if m.Node.State() != node.Running {
		return
	}
	m.Node.Crash(storage.TornNone)
	c.mark(fmt.Sprintf("%s crash injected", m.Role))
	c.recoverNode(p, m)
}

// onRejoin handles a suspected member becoming reachable again. The healed
// minority rejoins under the current lease epoch; its backlog drains through
// the (re-created) replication stream.
func (c *Cluster) onRejoin(m *Member) {
	epoch := uint64(0)
	if c.fence != nil {
		epoch = c.fence.Epoch()
		if m.Role == RO {
			m.Node.GrantEpoch(epoch)
		}
	}
	c.mark(fmt.Sprintf("partition healed: %s rejoined under epoch %d", m.Role, epoch))
}

// awaitReachable polls (on the heartbeat interval) until the control plane
// reaches the member again.
func (c *Cluster) awaitReachable(p *sim.Proc, m *Member) {
	for !c.detStop && !c.nodeReachable(m.Node) {
		p.Sleep(c.detCfg.Interval)
	}
}

// firstReachableRO returns the first RO member the control plane currently
// reaches (promotion candidates must be on the majority side).
func (c *Cluster) firstReachableRO() *Member {
	for _, m := range c.members {
		if m.Role == RO && c.nodeReachable(m.Node) {
			return m
		}
	}
	return nil
}
