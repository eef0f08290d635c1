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
	"cloudybench/internal/obs"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// The gauntlet harness (DESIGN.md §18). Every fault run — the chaos,
// partition, crash, suite and soak gauntlets and the fail-over cell — is a
// spec executed by runGauntlet; its own file holds only its config, its spec,
// and the numbers it reads off the run.

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
	convergence                     // every member but the RW, against the RW
)

// sabotage doctors what a checker reads so that checker must FAIL; only the
// in-package teeth tests set it.
type sabotage struct {
	// unfenced disables the write lease, so stale-epoch commits are
	// acknowledged (only the fence can acknowledge them: storage.Fence.Disable).
	unfenced bool
	// lostWrite names a member ("rw", "ro0") that loses the RW's last
	// committed write between quiesce and judge: the write is rolled back on
	// it through DB.ApplyBatch, the replica path, which fires no observer hook.
	lostWrite string
}

// gauntletMix blends all four transactions so every invariant has work to
// judge (T1 inserts, T2 payments, T3 reads, T4 deletes).
var gauntletMix = core.Mix{T1: 30, T2: 20, T3: 40, T4: 10}

// recoveryDeadline bounds each post-traffic wait in virtual time: a wedged
// recovery or an undrainable backlog fails its verdicts, not the host.
const recoveryDeadline = 2 * time.Minute

// spec declares one gauntlet run.
type spec struct {
	// name names the traffic runner (and so its RNG streams).
	name string
	kind cdb.Kind
	sf   int
	seed int64

	// Traffic: closed-loop clients for span over the Table II mix — or,
	// with suite set, its ops over its tables. schema adds tables/indexes.
	clients      int
	span         time.Duration
	mix          core.Mix
	suite        *core.Suite
	scanOverride core.ScanFunc
	schema       func(*engine.DB) error
	// body, if set, replaces the single span (soak: a burst per window;
	// fail-over: a write and a replica-pinned read stream).
	body func(p *sim.Proc, rc *run)

	schedule  chaos.Schedule // empty = no faults
	observe   observe
	resilient bool             // clients reroute reads and honour reachability
	retry     core.RetryPolicy // zero = runner defaults
	detector  bool             // run the profile's failure detector
	await     await
	// invariants is the verdict sheet; fenceTrio on it turns ack logging on.
	invariants []invariant

	tracer   *obs.Tracer
	sabotage sabotage
}

func (sp spec) withDefaults() spec {
	sp.sf, sp.seed = max(sp.sf, 1), cmp.Or(sp.seed, 42)
	return sp
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
	rec  *check.Recorder
	col  *core.Collector // the traffic span's collector (nil under a body)
	inj  *chaos.Injector

	reroutes int64 // reads served by a fallback node, over every burst
	// outageAt is the schedule's first partition or node kill (span if none).
	outageAt    time.Duration
	quiesceTime time.Duration // how long the replication backlog took to drain
	verdicts    []check.Verdict
}

// runGauntlet executes one spec; the same spec yields the same run.
func runGauntlet(sp spec) *run {
	sp = sp.withDefaults()
	s := sim.New(simEpoch)
	prof := cdb.ProfileFor(sp.kind)
	schema := sp.schema
	if sp.suite != nil {
		schema = func(db *engine.DB) error { return sp.suite.Tables(db, sp.sf, sp.seed) }
	}
	d := cdb.MustDeploy(s, prof, cdb.Options{
		SF: sp.sf, Seed: sp.seed, Replicas: 1, PreWarm: true,
		Serverless:  cdb.Bool(false),
		ExtraSchema: schema,
		Tracer:      sp.tracer,
	})
	inj, err := chaos.NewInjector(s, sp.schedule, chaos.Targets{
		Cluster: d.Cluster,
		Links:   d.Links(),
		Net:     d.Net,
		Seed:    sp.seed,
	})
	if err != nil {
		panic("evaluator: " + sp.name + " schedule: " + err.Error())
	}
	rc := &run{spec: sp, d: d, inj: inj, outageAt: sp.span}
	for _, ev := range sp.schedule.Events {
		if ev.Kind == chaos.Partition || ev.Kind == chaos.AsymPartition || ev.Kind == chaos.NodeCrash {
			rc.outageAt = ev.At
			break
		}
	}
	rc.attachRecorder()
	d.Fence.SetRecording(slices.Contains(sp.invariants, fenceTrio))
	if sp.sabotage.unfenced {
		d.Fence.Disable()
	}
	inj.Start()
	if sp.detector {
		d.StartDetector()
	}

	s.Go("ctl", func(p *sim.Proc) {
		if sp.body != nil {
			sp.body(p, rc)
		} else {
			rc.col = rc.burst(p, sp.name, sp.clients, sp.span)
		}
		// The last fault may land late in the window, and an RDS-style restart
		// waits out the heal and then replays for tens of seconds: hold, drain.
		for deadline := p.Elapsed() + recoveryDeadline; p.Elapsed() < deadline && !rc.recovered(); {
			p.Sleep(500 * time.Millisecond)
		}
		rc.quiesce(p)
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		panic("evaluator: " + sp.name + " run: " + err.Error())
	}
	if sp.sabotage.lostWrite != "" {
		rc.loseWrite(sp.sabotage.lostWrite)
	}
	rc.verdicts = rc.judge(sp.invariants)
	return rc
}

// loseWrite rolls the RW's last committed write back on the named member:
// the key returns to the prior image the RW logged, or disappears if it had
// none.
func (rc *run) loseWrite(member string) {
	lg := rc.d.RW().DB.Log()
	committed := make(map[uint64]bool)
	for recs := range lg.Chunks() {
		for i := range recs {
			if recs[i].Type == storage.RecCommit {
				committed[recs[i].Txn] = true
			}
		}
	}
	var last *storage.Record
	for recs := range lg.Chunks() {
		for i := range recs {
			switch r := &recs[i]; r.Type {
			case storage.RecInsert, storage.RecUpdate, storage.RecDelete:
				if committed[r.Txn] {
					last = r
				}
			}
		}
	}
	if last == nil {
		return
	}
	undo := storage.Record{Type: storage.RecDelete, Table: last.Table, Page: last.Page, Key: last.Key}
	if last.Flags&storage.FlagPriorExisted != 0 {
		undo.Type, undo.Image = storage.RecUpdate, last.Prior
	}
	for _, m := range rc.d.Cluster.Members() {
		if memberName(m) == member {
			if err := m.Node.DB.ApplyBatch([]storage.Record{undo}); err != nil {
				panic("evaluator: sabotage: " + err.Error())
			}
		}
	}
}

// memberName is a member's node name without its deployment prefix.
func memberName(m *cluster.Member) string {
	return m.Node.Name[strings.LastIndexByte(m.Node.Name, '/')+1:]
}

// attachRecorder starts a fresh history on the observed engines (soak calls
// it again between sweeps, traffic drained: segments hold whole transactions).
func (rc *run) attachRecorder() {
	rc.rec = check.NewRecorder()
	switch rc.spec.observe {
	case observePrimary:
		rc.d.RW().DB.SetObserver(rc.rec)
	case observeAll:
		for _, m := range rc.d.Cluster.Members() {
			m.Node.DB.SetObserver(rc.rec)
		}
	}
}

// burst runs one traffic window on a fresh runner (RNG streams keyed by
// name) and returns its collector once every client has drained.
func (rc *run) burst(p *sim.Proc, name string, clients int, span time.Duration) *core.Collector {
	sp, d := rc.spec, rc.d
	cfg := core.Config{
		Name: name, Seed: sp.seed, Mix: sp.mix,
		Write: d.RW, Read: d.ReadNode,
		Collector:    core.NewCollector(),
		Retry:        sp.retry,
		Tracer:       sp.tracer,
		ScanOverride: sp.scanOverride,
	}
	if sp.suite != nil {
		cfg.Ops = sp.suite.Ops(sp.sf)
	}
	if sp.resilient {
		cfg.ReadCandidates = d.ReadCandidates
		cfg.Reachable = d.ClientReachable
	}
	r := core.NewRunner(d.S, cfg)
	r.SetConcurrency(clients)
	p.Sleep(span)
	r.Stop()
	r.Wait(p)
	rc.reroutes += r.Reroutes()
	return cfg.Collector
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

// quiesce drains replication (the healed or resynced side catches up; a
// stopped pre-promotion stream is already balanced). A stream that cannot
// drain by the deadline is left for Convergence to fail.
func (rc *run) quiesce(p *sim.Proc) {
	start := p.Elapsed()
	deadline := start + recoveryDeadline
	for _, st := range rc.d.Streams() {
		for p.Elapsed() < deadline {
			shipped, applied := st.Counts()
			if st.Backlog() == 0 && shipped == applied {
				break
			}
			p.Sleep(10 * time.Millisecond)
		}
	}
	rc.quiesceTime = p.Elapsed() - start
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
		case indexCoherent, convergence:
			perMember = append(perMember, inv)
		}
	}
	for _, m := range d.Cluster.Members() {
		name := memberName(m)
		for _, inv := range perMember {
			if inv == indexCoherent {
				vs = append(vs, check.IndexCoherent(name, m.Node.DB))
			} else if m.Node != rw {
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
