package evaluator

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/obs"
)

// ChaosConfig parameterizes one SUT's run through the chaos gauntlet.
type ChaosConfig struct {
	Kind cdb.Kind
	SF   int
	// Concurrency is the client count (default 16).
	Concurrency int
	// Span is the traffic window the fault schedule is compiled onto
	// (default 20s; see chaos.Standard for the fault instants).
	Span time.Duration
	Seed int64
	// Tracer, if non-nil, records per-transaction stage traces through the
	// gauntlet. Attaching it must not change the verdict sheet: the chaos
	// determinism test asserts byte-identical reports with tracing on/off.
	Tracer *obs.Tracer
}

// ChaosResult is one SUT's verdict sheet plus recovery metrics.
type ChaosResult struct {
	Kind cdb.Kind

	Verdicts []check.Verdict
	Applied  []chaos.Applied // faults actually injected, in firing order

	Commits int64
	Aborts  int64
	Errors  int64 // client-visible request failures (down node, IO fault)
	TPS     float64

	// InjectedFaults counts requests the IO-error burst rejected.
	InjectedFaults int64
	// QuiesceTime is how long after traffic stopped the replication
	// backlog took to drain — the recovery tail the faults left behind.
	QuiesceTime time.Duration
}

// Passed reports whether every invariant held.
func (r ChaosResult) Passed() bool { return check.AllPassed(r.Verdicts) }

// chaosSpec: chaos.Standard over the mix with the plain (non-rerouting)
// client and no detector, the recorder on the RW only; nothing to wait for —
// every standard fault heals itself inside the window.
func chaosSpec(cfg ChaosConfig) spec {
	span := orDefault(cfg.Span, 20*time.Second)
	return spec{
		name: "chaos", kind: cfg.Kind, sf: cfg.SF, seed: cfg.Seed,
		clients: orDefault(cfg.Concurrency, 16), span: span, mix: gauntletMix,
		schedule:   chaos.Standard(span),
		observe:    observePrimary,
		invariants: []invariant{conservation, rowBalance, readCommitted, convergence},
		tracer:     cfg.Tracer,
	}
}

// RunChaos drives one SUT through the standard fault schedule while the
// invariant recorder watches every transaction, then quiesces replication
// and passes judgement. Deterministic: the same config yields the same
// verdicts, metrics, and fault log.
func RunChaos(cfg ChaosConfig) ChaosResult { return chaosResult(runGauntlet(chaosSpec(cfg))) }

func chaosResult(rc *run) ChaosResult {
	res := ChaosResult{
		Kind:        rc.spec.kind,
		Verdicts:    rc.verdicts,
		Applied:     rc.inj.Applied(),
		Errors:      rc.col.Errors(),
		TPS:         rc.col.TPS(0, rc.spec.span),
		QuiesceTime: rc.quiesceTime,
	}
	res.Commits, res.Aborts = rc.rec.Counts()
	for _, n := range rc.d.Nodes() {
		res.InjectedFaults += n.InjectedFaults()
	}
	return res
}
