package evaluator

import (
	"cmp"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/cluster"
	"cloudybench/internal/core"
	"cloudybench/internal/node"
	"cloudybench/internal/sim"
)

// FailoverConfig parameterizes one fail-over run (paper §II-E, Table VIII,
// Figure 7): steady read-write traffic, a kill of the RW or an RO node that
// the cluster brings back through real crash recovery, and two-phase
// recovery measurement.
type FailoverConfig struct {
	Kind cdb.Kind
	// Role selects the failed node (cluster.RW or cluster.RO).
	Role cluster.Role
	// Concurrency is the total worker count (paper: 150), split between a
	// write stream against the RW node and a read stream pinned to the
	// replica so each role's recovery is observable.
	Concurrency int
	// Baseline is the steady period before injection (default 10s).
	Baseline time.Duration
	// Timeout bounds the post-injection observation (default 120s).
	Timeout time.Duration
	Seed    int64
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	c.Concurrency = orDefault(c.Concurrency, 150)
	c.Baseline = orDefault(c.Baseline, 10*time.Second)
	c.Timeout = orDefault(c.Timeout, 120*time.Second)
	c.Seed = cmp.Or(c.Seed, 42)
	return c
}

// FailoverResult reports the two recovery phases.
type FailoverResult struct {
	Kind cdb.Kind
	Role cluster.Role

	BaselineTPS float64
	// F is phase one: the kill until the cluster's timeline marks the
	// service restored — the whole observation window if it never is.
	F time.Duration
	// R is phase two: service restored until throughput regains the
	// pre-failure level (see throughputBack).
	R time.Duration
	// Timeline is the cluster's phase trace (Figure 7 for CDB4).
	Timeline []cluster.PhaseEvent
}

// recoveryWindow is the span throughput is averaged over when deciding that
// it has regained the pre-failure level.
const recoveryWindow = 3 * time.Second

// throughputBack returns the start of the first whole-second window of
// recoveryWindow that begins at or after from, ends by until, and averages
// at least 90% of the baseline TPS. Observation stops on it and phase R ends
// at it, so the two can never disagree.
func throughputBack(col *core.Collector, from, until time.Duration, baseline float64) (time.Duration, bool) {
	for w := (from + time.Second - 1).Truncate(time.Second); w+recoveryWindow <= until; w += time.Second {
		if col.TPS(w, w+recoveryWindow) >= baseline*0.9 {
			return w, true
		}
	}
	return 0, false
}

// RunFailover kills one node at the end of the baseline and measures
// recovery: a gauntlet spec whose schedule is a single NodeCrash. F is read
// off the cluster's timeline; R off the killed role's traffic.
func RunFailover(cfg FailoverConfig) FailoverResult {
	cfg = cfg.withDefaults()
	killAt, end := cfg.Baseline, cfg.Baseline+cfg.Timeout
	target, await := "rw", awaitWriteService
	if cfg.Role == cluster.RO {
		target, await = "ro0", awaitAllRunning
	}
	serviceBack := func(tl []cluster.PhaseEvent) time.Duration {
		if cfg.Role == cluster.RO {
			return firstMarkAfter(tl, killAt, "RO service restored")
		}
		return restoredAfter(tl, killAt)
	}

	// Write stream to the current RW (follows promotion), recorded in the
	// cell's collector; read stream pinned to the first replica member
	// (whichever node fills that role). col is the killed role's.
	readCol := core.NewCollector()
	var col *core.Collector
	var stop time.Duration
	rc := runCell(spec{
		name: "failover", prof: cdb.ProfileFor(cfg.Kind), opts: fixed(cfg.Seed),
		schedule: chaos.Schedule{Events: []chaos.Event{{At: killAt, Kind: chaos.NodeCrash, Target: target}}},
		await:    await,
		body: func(p *sim.Proc, rc *run) {
			d := rc.d
			col = rc.col
			if cfg.Role == cluster.RO {
				col = readCol
			}
			writes := core.NewRunner(d.S, core.Config{
				Name: "writes", Seed: cfg.Seed, Mix: core.MixReadWrite,
				Write: d.RW, Read: d.RW,
				Collector: rc.col, Retry: core.RetryPolicy{BackoffBase: 200 * time.Millisecond},
			})
			replica := func() *node.Node { return d.Cluster.Replica(0).Node }
			reads := core.NewRunner(d.S, core.Config{
				Name: "reads", Seed: cfg.Seed + 1, Mix: core.MixReadOnly,
				Write: replica, Read: replica,
				Collector: readCol, Retry: core.RetryPolicy{BackoffBase: 200 * time.Millisecond},
			})
			writes.SetConcurrency(cfg.Concurrency / 3)
			reads.SetConcurrency(cfg.Concurrency - cfg.Concurrency/3)
			p.Sleep(killAt)
			baseline := col.TPS(0, killAt)
			for p.Elapsed() < end {
				p.Sleep(time.Second)
				if back := serviceBack(d.Cluster.Timeline()); back > 0 {
					if _, ok := throughputBack(col, back, p.Elapsed(), baseline); ok {
						break
					}
				}
			}
			stop = p.Elapsed()
			writes.Stop()
			reads.Stop()
			writes.Wait(p)
			reads.Wait(p)
		},
	})

	res := FailoverResult{
		Kind:        cfg.Kind,
		Role:        cfg.Role,
		BaselineTPS: col.TPS(0, killAt),
		Timeline:    rc.d.Cluster.Timeline(),
	}
	back := serviceBack(res.Timeline)
	if back == 0 || back > end {
		// Service never came back inside the observation window: the whole
		// window is phase one. Without this, a total outage would report
		// F=0/R=0 — indistinguishable from a perfect run.
		res.F = end - killAt
		return res
	}
	res.F = back - killAt
	if at, ok := throughputBack(col, back, stop, res.BaselineTPS); ok {
		res.R = at - back
	} else {
		res.R = end - back // never fully recovered in window
	}
	return res
}
