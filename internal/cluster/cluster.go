// Package cluster manages a database cluster: one read-write node, its
// read-only replicas, the replication streams between them, and fail-over.
//
// Every failure takes one path, InjectNodeCrash: the node is killed (its WAL
// keeps only what fsync made durable, every volatile structure dies), the
// failure is detected after the heartbeat delay, and the node comes back
// through real crash recovery whose duration is emergent from the log. The
// service then returns without operator action, as in the paper's §II-E, and
// the evaluator reads the two phases off the run: until the service accepts
// requests again (F-Score) and until throughput regains its pre-failure level
// (R-Score).
//
// A killed RW recovers in place (RDS and most CDBs) or, on the
// memory-disaggregated architecture of Figure 7 (CDB4), fails over: prepare
// (refuse requests, collect LSNs), promote an RO to the new RW, recover by
// scanning undo, and recover the old RW into a replica.
package cluster

import (
	"fmt"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/obs"
	"cloudybench/internal/replication"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// Role is a member's current role.
type Role int

// Roles.
const (
	RW Role = iota
	RO
)

func (r Role) String() string {
	if r == RW {
		return "RW"
	}
	return "RO"
}

// Member is one node in the cluster.
type Member struct {
	Node   *node.Node
	Role   Role
	Stream *replication.Stream // stream feeding this node (nil for the RW)
}

// FailoverConfig sets the architecture's recovery behaviour.
type FailoverConfig struct {
	// DetectDelay is the heartbeat interval before a failure is noticed.
	DetectDelay time.Duration
	// RecoveryRamp, if positive, throttles the restarted node's vCores,
	// ramping linearly from 25% back to full over this duration —
	// modeling background redo/undo replay and catch-up work competing
	// with foreground queries. It is what separates R-Score from zero:
	// the service is up (F done) but throughput lags (R phase).
	RecoveryRamp time.Duration
	// PromoteOnRWFailure switches over to an RO instead of recovering in
	// place (CDB4, Figure 7), using the three phase durations below.
	PromoteOnRWFailure bool
	PreparePhase       time.Duration
	SwitchPhase        time.Duration
	RecoverPhase       time.Duration
}

// PhaseEvent is one step of a fail-over timeline (Figure 7).
type PhaseEvent struct {
	At    time.Duration
	Phase string
}

// StreamFactory builds a replication stream from the current RW to the
// given replica (used at setup and again after promotion rewires roles).
type StreamFactory func(target *node.Node) *replication.Stream

// Cluster is one SUT deployment.
type Cluster struct {
	S       *sim.Sim
	Name    string
	cfg     FailoverConfig
	members []*Member
	rw      *Member
	factory StreamFactory

	timeline []PhaseEvent
	rrNext   int
	trace    *obs.Tracer

	// fence is the deployment-wide write lease (nil = no fencing); every
	// fail-over advances its epoch before promoting, so a partitioned old
	// RW is fenced at storage rather than trusted to step down.
	fence *storage.Fence

	// reachable answers whether the control plane currently reaches a node
	// (nil = always). The failure detector heartbeats through it.
	reachable func(*node.Node) bool
	detCfg    DetectorConfig
	detStop   bool
	detOn     bool
}

// SetTracer attaches (or, with nil, detaches) the observability tracer.
// Fail-over phases are then recorded as background storage-replay spans
// under the "failover" activity, phase name in the span detail.
func (c *Cluster) SetTracer(t *obs.Tracer) { c.trace = t }

// tracePhase records one fail-over phase interval on the tracer (no-op when
// tracing is off).
func (c *Cluster) tracePhase(phase string, start, end time.Duration) {
	if c.trace != nil {
		c.trace.RecordBG("failover", obs.KindStorageReplay, phase, start, end)
	}
}

// New builds a cluster from a read-write node and replicas. factory may be
// nil when the cluster has no replicas or replication is wired externally.
func New(s *sim.Sim, name string, cfg FailoverConfig, rwNode *node.Node, replicas []*node.Node, factory StreamFactory) *Cluster {
	c := &Cluster{S: s, Name: name, cfg: cfg, factory: factory}
	c.rw = &Member{Node: rwNode, Role: RW}
	c.members = append(c.members, c.rw)
	for _, r := range replicas {
		m := &Member{Node: r, Role: RO}
		if factory != nil {
			m.Stream = factory(r)
		}
		c.members = append(c.members, m)
	}
	c.wireCommit()
	return c
}

// wireCommit points the current RW's commit hook at every RO stream. Each
// stream gets references to the committed records' slots in the RW's WAL,
// not copies. The log is looked up per commit: an in-place recovery gives
// the node a fresh DB and with it a fresh log.
func (c *Cluster) wireCommit() {
	streams := c.roStreams()
	rw := c.rw.Node
	if len(streams) == 0 {
		rw.OnCommit = nil
		return
	}
	rw.OnCommit = func(p *sim.Proc, recs []storage.Record) {
		log := rw.DB.Log()
		for _, st := range streams {
			st.PublishFrom(p, log, recs)
		}
	}
}

func (c *Cluster) roStreams() []*replication.Stream {
	var out []*replication.Stream
	for _, m := range c.members {
		if m.Role == RO && m.Stream != nil {
			out = append(out, m.Stream)
		}
	}
	return out
}

// RW returns the current read-write node (changes after promotion).
func (c *Cluster) RW() *node.Node { return c.rw.Node }

// RWMember returns the current read-write member.
func (c *Cluster) RWMember() *Member { return c.rw }

// Members returns all members.
func (c *Cluster) Members() []*Member { return c.members }

// ReadNode returns a node for read traffic, balancing round-robin across
// every running member — the RW node serves reads too, so adding an RO
// node grows aggregate read capacity (the basis of the E2 score).
func (c *Cluster) ReadNode() *node.Node {
	n := len(c.members)
	for i := 0; i < n; i++ {
		m := c.members[(c.rrNext+i)%n]
		if m.Node.State() == node.Running {
			c.rrNext = (c.rrNext + i + 1) % n
			return m.Node
		}
	}
	return c.rw.Node
}

// Replica returns the i-th RO member (nil if out of range).
func (c *Cluster) Replica(i int) *Member {
	idx := 0
	for _, m := range c.members {
		if m.Role == RO {
			if idx == i {
				return m
			}
			idx++
		}
	}
	return nil
}

// Timeline returns the recorded fail-over phase events.
func (c *Cluster) Timeline() []PhaseEvent { return c.timeline }

func (c *Cluster) mark(phase string) {
	c.timeline = append(c.timeline, PhaseEvent{At: c.S.Elapsed(), Phase: phase})
}

// SetFence attaches the deployment-wide write lease so fail-overs advance
// the epoch (and fence the old RW) before promoting.
func (c *Cluster) SetFence(f *storage.Fence) { c.fence = f }

// Fence returns the attached write lease (nil if none).
func (c *Cluster) Fence() *storage.Fence { return c.fence }

// Shutdown stops all replication streams, checkpointers, and the failure
// detector so the simulation can drain.
func (c *Cluster) Shutdown() {
	c.StopDetector()
	for _, m := range c.members {
		if m.Stream != nil {
			m.Stream.Stop()
		}
		m.Node.StopCheckpointer()
	}
}

// InjectNodeCrash kills the member's node at this instant — its WAL keeps
// only what fsync made durable (the record mid-write torn as torn says), every
// volatile structure dies — then, after the failure-detection delay, drives
// real crash recovery: an RW either recovers in place via the ARIES pass
// (recovery time emergent from log-since-checkpoint) or, for
// promote-on-failure architectures, fails over to a replica seeded from the
// durable log (the returned stats are then the old primary's rejoin
// recovery); a crashed RO resyncs from the primary's durable log (its own
// apply state was volatile). Blocks until the member serves again; returns
// the recovery stats of the pass that restored it.
func (c *Cluster) InjectNodeCrash(p *sim.Proc, m *Member, torn storage.TornMode) (engine.RecoveryStats, error) {
	if m == nil {
		return engine.RecoveryStats{}, nil
	}
	if m.Node.State() != node.Running {
		// The node is already down, recovering, or paused: crashing a
		// mid-recovery node would corrupt the recovery in progress, so the
		// fault is recorded as a no-op (the schedule stays deterministic
		// either way).
		c.mark(fmt.Sprintf("%s crash skipped (not running)", m.Role))
		return engine.RecoveryStats{}, nil
	}
	if torn != storage.TornNone {
		// An adversarial kill: wait (briefly) for an instant when the WAL
		// actually holds unsynced records, so the tear lands mid-write on a
		// real in-flight record instead of falling in a clean gap between
		// fsync barriers. Bounded so an idle node still crashes.
		log := m.Node.DB.Log()
		deadline := p.Elapsed() + 250*time.Millisecond
		for log.Head() <= log.DurableLSN() && p.Elapsed() < deadline {
			p.Sleep(20 * time.Microsecond)
		}
	}
	m.Node.Crash(torn)
	c.mark(fmt.Sprintf("%s crash injected", m.Role))
	p.Sleep(c.cfg.DetectDelay)
	if m.Role == RW && c.cfg.PromoteOnRWFailure && c.Replica(0) != nil {
		return c.promoteCrashed(p, m)
	}
	if m.Role == RO {
		// Replica resync: rebuild from the primary's durable log.
		m.Node.SeedRecovery(c.rw.Node.DB.Log().DurableSnapshot(), nil)
	}
	return c.recoverNode(p, m)
}

// recoverNode drives real node recovery for a crashed member and restores
// it to service, marking "<role> service restored" on the timeline.
func (c *Cluster) recoverNode(p *sim.Proc, m *Member) (engine.RecoveryStats, error) {
	t0 := c.S.Elapsed()
	st, err := m.Node.Recover(p)
	if err != nil {
		c.mark(fmt.Sprintf("%s recovery failed", m.Role))
		return st, err
	}
	c.tracePhase(fmt.Sprintf("%s crash recovery", m.Role), t0, c.S.Elapsed())
	c.mark(fmt.Sprintf("%s service restored", m.Role))
	c.rampUp(m.Node)
	return st, nil
}

// rampUp throttles a freshly restarted node and restores full capacity in
// quarter steps across the configured recovery ramp.
func (c *Cluster) rampUp(n *node.Node) {
	if c.cfg.RecoveryRamp <= 0 {
		return
	}
	full := n.VCores()
	if full <= 0 {
		return
	}
	n.SetVCores(c.S.Elapsed(), full*0.25)
	c.S.Go(c.Name+"/recovery-ramp", func(p *sim.Proc) {
		const steps = 4
		for i := 1; i <= steps; i++ {
			p.Sleep(c.cfg.RecoveryRamp / steps)
			n.SetVCores(c.S.Elapsed(), full*(0.25+0.75*float64(i)/steps))
		}
	})
}

// promoteCrashed fails over away from a crashed RW: it promotes the first
// RO, seeding its WAL from the durable log the crash left in shared storage,
// and then rejoins the old RW as an RO. The rejoin runs actual ARIES
// recovery over the old RW's durable log; those stats are returned so crash
// gauntlets can report the recovery work a promotion architecture still
// performs.
func (c *Cluster) promoteCrashed(p *sim.Proc, old *Member) (engine.RecoveryStats, error) {
	target := c.Replica(0)
	c.mark("RW failure detected")
	var epoch uint64
	if c.fence != nil {
		epoch = c.fence.Advance(c.S.Elapsed())
	}
	snap, _ := old.Node.CrashArtifacts()
	c.promote(p, old, target, epoch, &walSeed{log: snap, txnFloor: old.Node.DB.TxnCounter()})
	// The old RW restarts cold slightly behind the switch-over and rejoins
	// through actual recovery over its durable log — honest, since its
	// rebuilt state only ever serves reads behind the new RW's replication
	// stream.
	old.Node.Buf.Clear()
	st, err := old.Node.Recover(p)
	if err != nil {
		c.mark("old RW recovery failed")
		return st, err
	}
	c.mark("old RW rejoined as RO'")
	return st, nil
}

// walSeed is where a promoted RW's WAL continues from: the durable log in
// shared storage and the txn-id floor of the primary it replaces.
type walSeed struct {
	log      storage.LogSnapshot
	txnFloor uint64
}

// promote is the Figure 7 switch-over, one sequence for every fail-over:
// prepare (refuse requests, collect LSNs), switch over (promote target to
// the new RW), recover (scan undo), then serve under epoch and rejoin old as
// an RO through a fresh stream. The caller has already advanced the fence to
// epoch: from that instant every commit the old RW — even one alive behind a
// partition — acknowledges locally is refused by shared storage, so nothing
// below races a still-writing primary. A non-nil seed continues the target's
// WAL and txn ids from the acknowledged history the replica applied.
func (c *Cluster) promote(p *sim.Proc, old, target *Member, epoch uint64, seed *walSeed) {
	// Catch-up: apply every committed-but-unapplied record to the promotion
	// target before it takes over. The committed log lives in shared/quorum
	// storage, so the target can drain it even when the network path to the
	// old RW is gone; skipping this would silently lose the commits that
	// were still in the replication pipeline (divergence after fail-over).
	if target.Stream != nil {
		target.Stream.DrainPending(p)
	}

	// Prepare: the cluster manager tells every member it reaches to refuse
	// requests and collects the latest page/checkpoint LSNs. The old RW is
	// left alone: a crashed one is already down, and a partitioned one
	// cannot be told anything.
	c.mark("prepare: refuse requests, collect LSN")
	t0 := c.S.Elapsed()
	for _, m := range c.members {
		if m != old {
			m.Node.SetState(node.Down)
		}
	}
	p.Sleep(c.cfg.PreparePhase)
	c.tracePhase("prepare", t0, c.S.Elapsed())

	// Switch over: promote the RO; the old RW cleans up against the
	// remote buffer pool and will restart as an RO.
	c.mark("switch-over: promote RO to RW'")
	t0 = c.S.Elapsed()
	p.Sleep(c.cfg.SwitchPhase)
	c.tracePhase("switch-over", t0, c.S.Elapsed())
	old.Node.OnCommit = nil
	old.Role = RO
	target.Role = RW
	c.rw = target
	if seed != nil {
		target.Node.DB.Log().Restore(seed.log)
		target.Node.DB.BumpTxnFloor(seed.txnFloor)
	}

	// Recovering: the new RW rebuilds active transactions and rolls back
	// uncommitted work by scanning undo.
	c.mark("recovering: scan undo, rollback uncommitted")
	t0 = c.S.Elapsed()
	p.Sleep(c.cfg.RecoverPhase)
	c.tracePhase("recover", t0, c.S.Elapsed())

	// New RW serves (ramping while it rebuilds), and the old RW rejoins
	// as a replica via a fresh stream.
	target.Node.SetState(node.Running)
	if target.Stream != nil {
		// Final drain, now that the target accepts applies again: commits
		// that passed the fence check just before the epoch advanced were
		// still buying WAL durability during the first drain and published
		// afterwards; they are in the pipeline by now and must land before
		// the old stream dies, or they exist only on the demoted primary.
		target.Stream.DrainPending(p)
		target.Stream.Stop()
		target.Stream = nil
	}
	if c.fence != nil {
		target.Node.GrantEpoch(epoch)
	}
	c.mark("RW' serving requests")
	c.rampUp(target.Node)
	// A partitioned old RW's new stream is registered under the active
	// partition, so its backlog ships only once the cut heals (and the
	// detector's rejoin grants the epoch).
	if c.factory != nil {
		old.Stream = c.factory(old.Node)
		c.wireCommit()
	}
	for _, m := range c.members {
		if m != target && m != old {
			m.Node.SetState(node.Running)
		}
	}
}
