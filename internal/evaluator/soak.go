package evaluator

import (
	"fmt"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/obs"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// SoakConfig parameterizes one SUT's soak run: days of virtual time under
// a duty-cycled workload (one traffic burst per timeline window, idle clock
// leap between), a rolling per-day chaos schedule, tenant churn reshaping
// the client population window over window, and periodic in-flight
// invariant sweeps stamped into the timeline.
type SoakConfig struct {
	Kind cdb.Kind
	SF   int
	// Days is the virtual run length in days (default 3).
	Days int
	// Window is the timeline window width; it must divide 24h into at
	// least four windows per day so the rolling chaos schedule has distinct
	// windows to land in (default 2h).
	Window time.Duration
	// Burst is the traffic window at the start of each timeline window.
	// Keep it well under Window/4: the blackout partition must heal and the
	// retry queue drain before the next window's burst (default 1s).
	Burst time.Duration
	// Concurrency is the per-tenant client count; the tenant-churn pattern
	// multiplies it window over window (default 4).
	Concurrency int
	// SweepEvery runs an invariant sweep after every Nth window's burst
	// (default 3).
	SweepEvery int
	Seed       int64
}

// tenantPattern is the tenant-churn cycle: how many tenants are active in
// window w (each contributing Concurrency clients). Adjacent windows change
// by at most one tenant so churn itself never trips the window-over-window
// anomaly detectors — only faults should.
var tenantPattern = [4]int{2, 3, 3, 2}

// Tenants returns the active tenant count for window w.
func (c SoakConfig) Tenants(w int) int { return tenantPattern[w%len(tenantPattern)] }

// SoakSchedule compiles the rolling chaos schedule for a soak run: every
// virtual day repeats a disk stall clipping one burst (a p99 spike), a
// degraded fabric window, a replica kill mid-burst (durable-log resync),
// a primary kill mid-burst with a torn WAL tail (real ARIES recovery, with
// the following sweep judging durability across it), and a full client
// blackout window (the seeded unavailability anomaly); from day two onward
// the day opens with an eviction storm. All faults auto-heal, so each day
// starts from a healthy cluster.
func SoakSchedule(days int, window, burst time.Duration) chaos.Schedule {
	wpd := int(24 * time.Hour / window)
	// The primary kill gets its own window at three quarters of the day;
	// with only four windows/day that slot is the blackout window, so the
	// kill shares the day's opening burst instead.
	crashW := 3 * wpd / 4
	if crashW >= wpd-1 {
		crashW = 0
	}
	var sched chaos.Schedule
	for d := 0; d < days; d++ {
		dayStart := time.Duration(d) * 24 * time.Hour
		at := func(w int) time.Duration { return dayStart + time.Duration(w)*window }
		sched.Events = append(sched.Events,
			// Window 1: the device hangs for the first quarter of the burst;
			// blocked transactions commit late, inflating the window's p99
			// without collapsing its throughput.
			chaos.Event{At: at(1), Kind: chaos.DiskStall, Target: "rw", Duration: burst / 4},
			// Mid-day: congested fabric for a full burst, plus a replica
			// kill a third of the way in — the replica resyncs from the
			// primary's durable log while the fabric is degraded.
			chaos.Event{At: at(wpd / 2), Kind: chaos.LinkDegrade, Duration: burst,
				ExtraLatency: 2 * time.Millisecond, BWFactor: 0.5},
			chaos.Event{At: at(wpd/2) + burst/3, Kind: chaos.NodeCrash, Target: "ro0"},
			// The primary is killed mid-burst with a torn WAL tail —
			// in-flight transactions die, recovery must cut the tear, redo
			// from the last checkpoint, and undo the losers. The next
			// sweep's Durability/NoResurrection verdicts judge it.
			chaos.Event{At: at(crashW) + burst/2, Kind: chaos.NodeCrash, Target: "rw",
				Torn: storage.TornFlip},
			// Last window of the day: clients are cut from every node for the
			// whole burst and the retry drain — zero commits against real
			// attempts, the seeded unavailability anomaly.
			chaos.Event{At: at(wpd - 1), Kind: chaos.Partition, Duration: burst + 2*time.Second,
				GroupA: []string{"client"}, GroupB: []string{"rw", "ro0"}},
		)
		if d >= 1 {
			sched.Events = append(sched.Events,
				chaos.Event{At: at(0), Kind: chaos.CacheDrop, Target: "rw"})
		}
	}
	return sched
}

// SoakSweep is one in-flight invariant sweep: the virtual time it ran, the
// window it landed in, and its verdicts (Conservation, ReadCommitted,
// Durability, and NoResurrection over the segment since the previous sweep,
// IndexCoherent on the live primary, NoSplitBrain over the fence log so
// far). The durability pair is what judges each day's primary kill: the
// segment history spans the crash, so a lost acknowledged commit or a
// resurrected loser write surfaces in the very next sweep mark.
type SoakSweep struct {
	At       time.Duration
	Window   int
	Verdicts []check.Verdict
}

// Passed reports whether every swept invariant held.
func (s SoakSweep) Passed() bool { return check.AllPassed(s.Verdicts) }

// SoakWindow is one window's summary row plus its resource-unit cost.
type SoakWindow struct {
	obs.WindowRow
	// Cost is the RUC cost of the window; CostPer1kTxn relates it to the
	// window's commits (zero for a window that committed nothing — cost
	// without throughput shows up in the unavailability row itself).
	Cost         float64
	CostPer1kTxn float64
}

// SoakResult is one SUT's longitudinal report card.
type SoakResult struct {
	Kind   cdb.Kind
	Days   int
	Window time.Duration

	// Timeline is the windowed telemetry (also carrying sweep/chaos/anomaly
	// marks); Agg is the tracer's whole-run stage aggregation.
	Timeline *obs.Timeline
	Agg      *obs.StageAgg

	Windows   []SoakWindow
	Sweeps    []SoakSweep
	Anomalies []obs.Anomaly

	Commits   int64
	Errors    int64
	Terminals int64

	// Verdicts are the end-of-run checks: the fence trio, index coherence
	// on every node, and convergence of every replica after quiesce.
	Verdicts  []check.Verdict
	Applied   []chaos.Applied
	TotalCost float64
}

// Passed reports whether every sweep and every final invariant held.
func (r SoakResult) Passed() bool {
	for _, s := range r.Sweeps {
		if !s.Passed() {
			return false
		}
	}
	return check.AllPassed(r.Verdicts)
}

// RunSoak drives one SUT through a multi-day soak: duty-cycled traffic
// bursts (one per timeline window, tenant churn reshaping the client count),
// the rolling SoakSchedule chaos, in-flight invariant sweeps every
// SweepEvery windows, and a final quiesce + convergence judgement — the
// gauntlet harness with a windowed body. Deterministic: the same config
// yields byte-identical timelines, sweeps, and anomalies at any GOMAXPROCS.
func RunSoak(cfg SoakConfig) SoakResult {
	cfg.Days = orDefault(cfg.Days, 3)
	cfg.Window = orDefault(cfg.Window, 2*time.Hour)
	cfg.Burst = orDefault(cfg.Burst, time.Second)
	cfg.Concurrency = orDefault(cfg.Concurrency, 4)
	cfg.SweepEvery = orDefault(cfg.SweepEvery, 3)
	if 24*time.Hour%cfg.Window != 0 {
		panic(fmt.Sprintf("evaluator: soak window %v must divide 24h", cfg.Window))
	}
	wpd := int(24 * time.Hour / cfg.Window)
	if wpd < 4 {
		panic(fmt.Sprintf("evaluator: soak window %v leaves %d windows/day, need >= 4", cfg.Window, wpd))
	}
	totalWindows := cfg.Days * wpd

	tl := obs.NewTimeline(string(cfg.Kind), cfg.Window)
	tr := obs.NewTracer(string(cfg.Kind), tl)
	res := SoakResult{Kind: cfg.Kind, Days: cfg.Days, Window: cfg.Window, Timeline: tl, Agg: tr.Agg()}

	opts := fixed(cfg.SF, cfg.Seed)
	opts.Tracer = tr
	// A secondary index on the order status column: T2 payments rewrite
	// O_STATUS, so index maintenance runs for days and the in-flight
	// IndexCoherent sweeps judge a moving target, not an empty catalog.
	opts.ExtraSchema = func(db *engine.DB) error {
		_, err := db.CreateIndex(core.TableOrders, "ix_orders_status", "O_STATUS")
		return err
	}
	rc := runCell(spec{
		name: "soak", prof: cdb.ProfileFor(cfg.Kind), opts: opts, mix: gauntletMix,
		schedule:  SoakSchedule(cfg.Days, cfg.Window, cfg.Burst),
		observe:   observeAll,
		resilient: true,
		// The short retry budget keeps blackout-window stragglers from
		// draining past the healed partition.
		retry: core.RetryPolicy{
			MaxAttempts: 4, BackoffBase: 50 * time.Millisecond,
			BackoffCap: 400 * time.Millisecond,
		},
		invariants: []invariant{fenceTrio, indexCoherent, convergence},
		body: func(p *sim.Proc, rc *run) {
			// The in-flight sweep judges the history invariants over the
			// segment since the previous sweep; the recorder is on every member,
			// so segments span the daily primary kill and any promotion.
			sweep := func(w int) {
				verdicts := append(rc.judge([]invariant{conservation, readCommitted, durability, noResurrection}),
					check.IndexCoherent("rw", rc.d.RW().DB),
					check.NoSplitBrain(rc.d.Fence.Events()))
				sw := SoakSweep{At: p.Elapsed(), Window: w, Verdicts: verdicts}
				tl.Mark(sw.At, "sweep", check.SweepLine(verdicts), sw.Passed())
				res.Sweeps = append(res.Sweeps, sw)
				rc.attachRecorder()
			}
			for w := 0; w < totalWindows; w++ {
				// One burst per window at the churned tenant population. Its
				// collector is a throwaway, so live memory stays O(windows) —
				// the timeline — no matter how long the run is.
				col := core.NewCollector()
				rc.burst(p, fmt.Sprintf("soak/w%03d", w), cfg.Concurrency*cfg.Tenants(w), cfg.Burst, col)
				res.Commits += col.Commits()
				res.Errors += col.Errors()
				res.Terminals += col.Terminals()

				if (w+1)%cfg.SweepEvery == 0 {
					sweep(w)
				}
				if next := time.Duration(w+1) * cfg.Window; p.Elapsed() < next {
					p.Sleep(next - p.Elapsed())
				}
			}
		},
	})
	res.Verdicts = rc.verdicts

	// Stamp the applied chaos onto the timeline, run the anomaly pass, and
	// price each window.
	res.Applied = rc.inj.Applied()
	for _, a := range res.Applied {
		detail := string(a.Kind)
		if a.Target != "" {
			detail += " " + a.Target
		}
		tl.Mark(a.At, "chaos", detail, true)
	}
	res.Anomalies = tl.Anomalies()
	for _, a := range res.Anomalies {
		tl.Mark(a.At, "anomaly", a.Kind+": "+a.Detail, false)
	}
	for w := 0; w < totalWindows; w++ {
		row := tl.Row(w)
		cost := rc.d.RUCCost(row.Start, row.End)
		sw := SoakWindow{WindowRow: row, Cost: cost}
		if row.Commits > 0 {
			sw.CostPer1kTxn = cost / float64(row.Commits) * 1000
		}
		res.Windows = append(res.Windows, sw)
		res.TotalCost += cost
	}
	return res
}
