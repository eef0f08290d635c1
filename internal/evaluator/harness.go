package evaluator

import (
	"cmp"
	"slices"
	"strings"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/cluster"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/replication"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// The cell harness (DESIGN.md §18). Every simulated cell — the paper's OLTP,
// elasticity, lag, Figure 9 and ablation cells, the fail-over cell, and the
// chaos, partition, crash, suite and soak gauntlets — is a spec executed by
// runCell: deploy, drive, drain, finish, judge. Its own file holds only its
// config, its spec, and the numbers it reads off the run. The tenancy cells
// deploy a TenantSet, not a cluster, so they share only the finish step.

// simEpoch anchors every simulation at a fixed virtual date so runs are
// reproducible.
var simEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// observe says which engines the history recorder watches.
type observe int

const (
	observeNone observe = iota // no history: final state only is judged
	// observePrimary watches the initial RW. Once the lease advances, the old
	// primary rejoins as a replica and replay mutates its DB without firing
	// observer hooks, so the history invariants judge the prefix before that.
	observePrimary
	// observeAll watches every member (hooks fire only where write
	// transactions run; recovery carries the observer onto each rebuilt
	// engine): one history spans every crash and promotion.
	observeAll
)

// await is what the harness waits for between traffic and the drain.
type await int

const (
	awaitNothing      await = iota
	awaitAllRunning         // every member back in service
	awaitWriteService       // the timeline shows writes restored after the first outage
)

// invariant names one check of the verdict sheet, listed in sheet order; the
// per-member ones are judged after the cluster-level ones, member by member.
type invariant int

const (
	fenceTrio      invariant = iota // no-split-brain, monotonic-epoch, fenced-writes
	conservation                    // history
	rowBalance                      // history vs the RW's tables
	readCommitted                   // history
	durability                      // history vs the RW's tables
	noResurrection                  // history vs the RW's tables
	indexCoherent                   // every member
	scanCoherent                    // every member
	convergence                     // every member but the RW, against the RW
)

// gauntletMix blends all four transactions so every invariant has work to
// judge (T1 inserts, T2 payments, T3 reads, T4 deletes).
var gauntletMix = core.Mix{T1: 30, T2: 20, T3: 40, T4: 10}

// recoveryDeadline bounds each post-traffic wait in virtual time: a wedged
// recovery or an undrainable backlog fails its verdicts, not the host.
const recoveryDeadline = 2 * time.Minute

// noDrain as a spec's drainEvery shuts the cell down the moment traffic ends.
const noDrain = -1

// spec declares one cell.
type spec struct {
	// name names the traffic runner (and so its RNG streams) and the cell.
	name string
	prof cdb.Profile
	// opts is the deployment; its SF and Seed also key the traffic.
	opts cdb.Options
	// warm, if set, forks the cell from a warm-up snapshot: the clock starts
	// at its offset and every node, the remote pool and the collector resume
	// its state.
	warm *WarmSnapshot

	// Traffic: closed-loop clients for span over the Table II mix — or,
	// with suite set, its ops over its tables.
	clients      int
	span         time.Duration
	mix          core.Mix
	distribution string
	suite        *core.Suite
	// body, if set, replaces the single span (a concurrency schedule, a
	// burst per soak window, the fail-over's two streams, the lag probes).
	body func(p *sim.Proc, rc *run)

	schedule  chaos.Schedule // empty = no faults
	observe   observe
	resilient bool             // clients reroute reads and honour reachability
	retry     core.RetryPolicy // zero = runner defaults
	detector  bool             // run the profile's failure detector
	await     await
	// drainEvery is the quiesce poll interval: 10 ms by default, which the
	// goldens' Quiesce column shows; the warm-up's 1 ms shows in its
	// snapshot offset.
	drainEvery time.Duration
	// invariants is the verdict sheet; fenceTrio on it turns ack logging on.
	invariants []invariant
}

func (sp spec) withDefaults() spec {
	sp.opts.SF, sp.opts.Seed = max(sp.opts.SF, 1), cmp.Or(sp.opts.Seed, 42)
	sp.drainEvery = cmp.Or(sp.drainEvery, 10*time.Millisecond)
	return sp
}

// fixed is the deployment the fault runs and the lag cells share: one RW and
// one RO, pre-warmed, at the provisioned size.
func fixed(sf int, seed int64) cdb.Options {
	return cdb.Options{SF: sf, Seed: seed, Replicas: 1, PreWarm: true, Serverless: cdb.Bool(false)}
}

// orDefault returns v, or def when v is unset.
func orDefault[T int | time.Duration](v, def T) T {
	if v <= 0 {
		return def
	}
	return v
}

// run is the finished deployment and everything that watched it.
type run struct {
	spec spec
	d    *cdb.Deployment
	rec  *check.Recorder // nil unless the spec observes
	col  *core.Collector // the cell's collector; a body may keep its own
	inj  *chaos.Injector // nil without a schedule

	reroutes int64 // reads served by a fallback node, over every burst
	// outageAt is the schedule's first partition or node kill (span if none).
	outageAt    time.Duration
	quiesceTime time.Duration // how long the replication backlog took to drain
	drained     bool          // every stream drained before the deadline
	end         time.Duration // when the cell shut down
	verdicts    []check.Verdict
}

// runCell executes one spec; the same spec yields the same run.
func runCell(sp spec) *run {
	sp = sp.withDefaults()
	var at time.Duration
	if sp.warm != nil {
		at = sp.warm.offset
	}
	s := sim.NewAt(simEpoch, at)
	opts := sp.opts
	if sp.suite != nil {
		opts.ExtraSchema = func(db *engine.DB) error { return sp.suite.Tables(db, opts.SF, opts.Seed) }
	}
	d := cdb.MustDeploy(s, sp.prof, opts)
	rc := &run{spec: sp, d: d, col: core.NewCollector(), outageAt: sp.span}
	if sp.warm != nil {
		rc.restore(sp.warm)
	}
	if len(sp.schedule.Events) > 0 {
		inj, err := chaos.NewInjector(s, sp.schedule, chaos.Targets{
			Cluster: d.Cluster,
			Links:   d.Links(),
			Net:     d.Net,
			Seed:    opts.Seed,
		})
		if err != nil {
			panic("evaluator: " + sp.name + " schedule: " + err.Error())
		}
		rc.inj = inj
		inj.Start()
	}
	for _, ev := range sp.schedule.Events {
		if ev.Kind == chaos.Partition || ev.Kind == chaos.AsymPartition || ev.Kind == chaos.NodeCrash {
			rc.outageAt = ev.At
			break
		}
	}
	rc.attachRecorder()
	d.Fence.SetRecording(slices.Contains(sp.invariants, fenceTrio))
	if sp.detector {
		d.StartDetector()
	}

	finish(s, sp.name, func(p *sim.Proc) {
		if sp.body != nil {
			sp.body(p, rc)
		} else {
			rc.burst(p, sp.name, sp.clients, sp.span, rc.col)
		}
		// The last fault may land late in the window, and an RDS-style restart
		// waits out the heal and then replays for tens of seconds: hold, drain.
		for deadline := p.Elapsed() + recoveryDeadline; p.Elapsed() < deadline && !rc.recovered(); {
			p.Sleep(500 * time.Millisecond)
		}
		if sp.drainEvery > 0 {
			rc.quiesce(p)
		}
		rc.end = p.Elapsed()
		d.Shutdown()
	})
	rc.verdicts = rc.judge(sp.invariants)
	return rc
}

// runTenants deploys n tenants of prof and hands them to ctl. A TenantSet
// has no streams to drain and no sheet to judge, so the tenancy cells share
// only the skeleton's finish step.
func runTenants(name string, prof cdb.Profile, n int, opts cdb.Options, ctl func(*sim.Proc, *cdb.TenantSet)) *cdb.TenantSet {
	s := sim.New(simEpoch)
	ts := cdb.MustDeployTenants(s, prof, n, opts)
	finish(s, name, func(p *sim.Proc) {
		ctl(p, ts)
		ts.Shutdown()
	})
	return ts
}

// finish drives the cell's control process to the end of the simulation; a
// failed process panics, naming the cell.
func finish(s *sim.Sim, name string, ctl func(*sim.Proc)) {
	s.Go("ctl", ctl)
	if err := s.Run(); err != nil {
		panic("evaluator: " + name + " run: " + err.Error())
	}
}

// memberName is a member's node name without its deployment prefix.
func memberName(m *cluster.Member) string {
	return m.Node.Name[strings.LastIndexByte(m.Node.Name, '/')+1:]
}

// attachRecorder starts a fresh history on the observed engines (soak calls
// it again between sweeps, traffic drained: segments hold whole transactions).
func (rc *run) attachRecorder() {
	if rc.spec.observe == observeNone {
		return
	}
	rc.rec = check.NewRecorder()
	if rc.spec.observe == observePrimary {
		rc.d.RW().DB.SetObserver(rc.rec)
		return
	}
	for _, m := range rc.d.Cluster.Members() {
		m.Node.DB.SetObserver(rc.rec)
	}
}

// runner builds a traffic runner over the deployment, named name (its RNG
// streams), recording into col.
func (rc *run) runner(name string, col *core.Collector) *core.Runner {
	sp, d := rc.spec, rc.d
	cfg := core.Config{
		Name: name, Seed: sp.opts.Seed, Mix: sp.mix,
		Distribution: sp.distribution,
		Write:        d.RW, Read: d.ReadNode,
		Collector: col,
		Retry:     sp.retry,
		Tracer:    sp.opts.Tracer,
	}
	if sp.suite != nil {
		cfg.Ops = sp.suite.Ops(sp.opts.SF)
	}
	if sp.resilient {
		cfg.ReadCandidates = d.ReadCandidates
		cfg.Reachable = d.ClientReachable
	}
	return core.NewRunner(d.S, cfg)
}

// burst runs one traffic window on a fresh runner and returns once every
// client has drained.
func (rc *run) burst(p *sim.Proc, name string, clients int, span time.Duration, col *core.Collector) {
	r := rc.runner(name, col)
	r.SetConcurrency(clients)
	p.Sleep(span)
	r.Stop()
	r.Wait(p)
	rc.reroutes += r.Reroutes()
}

// recovered reports whether the spec's post-traffic condition holds.
func (rc *run) recovered() bool {
	switch rc.spec.await {
	case awaitAllRunning:
		for _, m := range rc.d.Cluster.Members() {
			if m.Node.State() != node.Running {
				return false
			}
		}
	case awaitWriteService:
		return restoredAfter(rc.d.Cluster.Timeline(), rc.outageAt) > 0
	}
	return true
}

// quiesce drains replication, the one drain every cell shares: the healed or
// resynced side catches up, a stopped pre-promotion stream is already
// balanced, a lag cell's replica applies the last records it was shipped
// while the cluster still runs. A stream that cannot drain by the deadline
// leaves drained false, for Convergence to fail and a warm-up to refuse.
func (rc *run) quiesce(p *sim.Proc) {
	settled := func(st *replication.Stream) bool {
		shipped, applied := st.Counts()
		return st.Backlog() == 0 && shipped == applied
	}
	start := p.Elapsed()
	deadline := start + recoveryDeadline
	for _, st := range rc.d.Streams() {
		for p.Elapsed() < deadline && !settled(st) {
			p.Sleep(rc.spec.drainEvery)
		}
	}
	rc.quiesceTime = p.Elapsed() - start
	rc.drained = !slices.ContainsFunc(rc.d.Streams(), func(st *replication.Stream) bool { return !settled(st) })
}

// judge renders a verdict sheet against the current state.
func (rc *run) judge(sheet []invariant) []check.Verdict {
	d := rc.d
	hist := rc.rec
	if rc.spec.observe == observePrimary {
		evs := d.Fence.Events()
		advance := func(ev storage.FenceEvent) bool { return ev.Kind == storage.FenceAdvance }
		if i := slices.IndexFunc(evs, advance); i >= 0 {
			hist = rc.rec.Before(evs[i].At)
		}
	}
	rw := d.RW()
	var vs []check.Verdict
	var perMember []invariant
	for _, inv := range sheet {
		switch inv {
		case fenceTrio:
			vs = append(vs, check.FenceVerdicts(d.Fence)...)
		case conservation:
			vs = append(vs, check.Conservation(hist))
		case rowBalance:
			vs = append(vs, check.RowBalance(hist, rw.DB))
		case readCommitted:
			vs = append(vs, check.ReadCommitted(hist))
		case durability:
			vs = append(vs, check.Durability("rw", hist, rw.DB))
		case noResurrection:
			vs = append(vs, check.NoResurrection("rw", hist, rw.DB))
		case indexCoherent, scanCoherent, convergence:
			perMember = append(perMember, inv)
		}
	}
	for _, m := range d.Cluster.Members() {
		name := memberName(m)
		for _, inv := range perMember {
			switch {
			case inv == indexCoherent:
				vs = append(vs, check.IndexCoherent(name, m.Node.DB))
			case inv == scanCoherent:
				vs = append(vs, check.ScanCoherent(name, m.Node))
			case m.Node != rw: // convergence
				vs = append(vs, check.Convergence(name, rw.DB, m.Node.DB))
			}
		}
	}
	return vs
}

// restoredAfter returns when the timeline first shows write service restored
// after `at` — a promotion completing, else an in-place recovery finishing
// (0 = never).
func restoredAfter(tl []cluster.PhaseEvent, at time.Duration) time.Duration {
	if t := firstMarkAfter(tl, at, "RW' serving requests"); t > 0 {
		return t
	}
	return firstMarkAfter(tl, at, "RW service restored")
}

// firstMarkAfter returns the time of the first timeline event after `at`
// whose phase starts with the prefix (0 = none).
func firstMarkAfter(tl []cluster.PhaseEvent, at time.Duration, prefix string) time.Duration {
	for _, ev := range tl {
		if ev.At > at && strings.HasPrefix(ev.Phase, prefix) {
			return ev.At
		}
	}
	return 0
}
