package evaluator

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/cluster"
	"cloudybench/internal/storage"
)

// CrashConfig parameterizes one SUT's run through the durability gauntlet:
// steady mixed traffic, node kills at adversarial virtual instants (mid-burst
// with in-flight transactions, torn WAL tails, a replica resync, a repeat
// crash shortly after recovery), and a post-quiesce judgement of the two
// contracts a crash must not break — no acknowledged commit lost, no
// unacknowledged write resurrected.
type CrashConfig struct {
	Kind cdb.Kind
	SF   int
	// Concurrency is the client count (default 12).
	Concurrency int
	// Span is the traffic window the crash schedule is compiled onto
	// (default 20s; see CrashSchedule for the kill instants).
	Span time.Duration
	Seed int64
}

// CrashSchedule is the canonical durability gauntlet scaled onto a run
// window: the primary is killed mid-traffic at 25% with a torn WAL tail
// (recovery must detect the mangled record by checksum and cut it), the
// replica is killed at 45% (its volatile apply state dies; it resyncs from
// the primary's durable log), the primary again at 65% (clean tail, redo
// window grown since the last checkpoint), and once more at 85% with a
// second torn tail — landing close enough to the previous recovery that
// architectures with slow restarts take it while still ramping.
func CrashSchedule(span time.Duration) chaos.Schedule {
	frac := func(f float64) time.Duration { return time.Duration(float64(span) * f) }
	return chaos.Schedule{Events: []chaos.Event{
		{At: frac(0.25), Kind: chaos.NodeCrash, Target: "rw", Torn: storage.TornFlip},
		{At: frac(0.45), Kind: chaos.NodeCrash, Target: "ro0"},
		{At: frac(0.65), Kind: chaos.NodeCrash, Target: "rw"},
		{At: frac(0.85), Kind: chaos.NodeCrash, Target: "rw", Torn: storage.TornFlip},
	}}
}

// CrashResult is one SUT's durability report card.
type CrashResult struct {
	Kind cdb.Kind

	BaselineTPS float64

	Commits   int64
	Errors    int64
	Terminals int64 // transactions abandoned after the retry budget
	Reroutes  int64 // reads served by a fallback node
	Fenced    int64 // stale-epoch commits refused by the lease
	Epoch     uint64

	// Crashes carries each fired kill's recovery outcome: the ARIES stats
	// (records scanned, redo window, losers rolled back, torn tail cut) of
	// the pass that restored the node. Recovery time is emergent from these
	// inputs, not scripted.
	Crashes []chaos.CrashOutcome

	Verdicts []check.Verdict
	Timeline []cluster.PhaseEvent
	Applied  []chaos.Applied
}

// Passed reports whether every invariant held.
func (r CrashResult) Passed() bool { return check.AllPassed(r.Verdicts) }

// crashSpec: one recorder on every member, so the history spans every crash
// and promotion. The commit path is crash-atomic after the durability wait
// (engine commit, client ack, and replication publish run in one runnable
// slice), so the acknowledged set it saw is exactly the durable set recovery
// must restore. The last kill lands near the end of the window, so the run
// holds until every member is back.
func crashSpec(cfg CrashConfig) spec {
	span := orDefault(cfg.Span, 20*time.Second)
	return spec{
		name: "crash", kind: cfg.Kind, sf: cfg.SF, seed: cfg.Seed,
		clients: orDefault(cfg.Concurrency, 12), span: span, mix: gauntletMix,
		schedule:  CrashSchedule(span),
		observe:   observeAll,
		resilient: true,
		detector:  true,
		await:     awaitAllRunning,
		invariants: []invariant{fenceTrio, durability, noResurrection, conservation, readCommitted,
			indexCoherent, convergence},
	}
}

// RunCrash drives one SUT through the durability gauntlet. Deterministic:
// the same config yields the same verdicts, recovery stats, and timeline.
func RunCrash(cfg CrashConfig) CrashResult { return crashResult(runGauntlet(crashSpec(cfg))) }

func crashResult(rc *run) CrashResult {
	d, col := rc.d, rc.col
	return CrashResult{
		Kind:        rc.spec.kind,
		BaselineTPS: col.TPS(0, rc.outageAt),
		Commits:     col.Commits(),
		Errors:      col.Errors(),
		Terminals:   col.Terminals(),
		Reroutes:    rc.reroutes,
		Fenced:      d.Fence.Rejects(),
		Epoch:       d.Fence.Epoch(),
		Crashes:     rc.inj.Crashes(),
		Verdicts:    rc.verdicts,
		Timeline:    d.Cluster.Timeline(),
		Applied:     rc.inj.Applied(),
	}
}
