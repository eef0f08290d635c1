package evaluator

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/obs"
)

// TestEvaluatorRunsAreDeterministic re-runs the same configuration twice
// and demands bit-identical results — the simulator's core promise, and
// what makes every number in EXPERIMENTS.md reproducible.
func TestEvaluatorRunsAreDeterministic(t *testing.T) {
	run := func() OLTPResult {
		return RunOLTP(OLTPConfig{
			Kind: cdb.CDB3, Mix: core.MixReadWrite, Concurrency: 24,
			Warmup: 500 * time.Millisecond, Measure: time.Second, Seed: 7,
		})
	}
	a, b := run(), run()
	if a.TPS != b.TPS {
		t.Fatalf("TPS diverged: %v vs %v", a.TPS, b.TPS)
	}
	if a.P50 != b.P50 || a.P99 != b.P99 {
		t.Fatalf("latency diverged: %v/%v vs %v/%v", a.P50, a.P99, b.P50, b.P99)
	}
	if a.HitRatio != b.HitRatio {
		t.Fatalf("hit ratio diverged: %v vs %v", a.HitRatio, b.HitRatio)
	}
	// A different seed must actually change the run.
	c := RunOLTP(OLTPConfig{
		Kind: cdb.CDB3, Mix: core.MixReadWrite, Concurrency: 24,
		Warmup: 500 * time.Millisecond, Measure: time.Second, Seed: 8,
	})
	if c.TPS == a.TPS && c.P99 == a.P99 {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

// TestCrossGOMAXPROCSDeterminism runs the quickstart-scale measurement at
// GOMAXPROCS=1 and GOMAXPROCS=8 with the same seed and demands byte-identical
// rendered metrics — with the tracer attached, so the observability layer is
// held to the same standard: trace counts, span aggregation, and the
// Prometheus snapshot must not depend on real parallelism. The DES kernel's
// single-runnable discipline means Go's scheduler must have no influence on
// virtual time — this is the test that catches an accidental dependency on
// real parallelism.
func TestCrossGOMAXPROCSDeterminism(t *testing.T) {
	render := func() string {
		var counts obs.CountSink
		tr := obs.NewTracer("cdb1", &counts)
		o := RunOLTP(OLTPConfig{
			Kind: cdb.CDB1, Mix: core.MixReadWrite, Concurrency: 24,
			Warmup: 500 * time.Millisecond, Measure: time.Second, Seed: 7,
			Tracer: tr,
		})
		c := RunChaos(ChaosConfig{Kind: cdb.CDB1, Span: 4 * time.Second, Concurrency: 4, Seed: 7})
		var prom strings.Builder
		if err := obs.WritePrometheus(&prom, tr.Agg()); err != nil {
			t.Fatal(err)
		}
		// Every registered workload suite is held to the same standard:
		// commits, planner split, index WAL traffic, per-op counts and every
		// verdict with its count (the scan cross-checks among them) must not
		// depend on real parallelism.
		var suites strings.Builder
		for _, name := range core.SuiteNames() {
			sr := RunSuite(SuiteConfig{
				Suite: name, Kind: cdb.CDB1,
				Span: 2 * time.Second, Concurrency: 3, Seed: 7,
			})
			fmt.Fprintf(&suites, "%s c=%d e=%d tps=%v ix=%d fs=%d wp=%d wd=%d ops=%v ",
				sr.Suite, sr.Commits, sr.Errors, sr.TPS, sr.IndexScans, sr.FullScans,
				sr.IndexWALPuts, sr.IndexWALDels, sr.Ops)
			for _, v := range sr.Verdicts {
				fmt.Fprintf(&suites, "%s=%s;", v.Name, v)
			}
			suites.WriteString("|")
		}
		return fmt.Sprintf("tps=%v p50=%v p99=%v hit=%v cost=%v traces=%d spans=%d | %s | %s\n%s",
			o.TPS, o.P50, o.P99, o.HitRatio, o.CostPerMin.Total(),
			counts.Traces, counts.Spans, chaosFingerprint(c), suites.String(), prom.String())
	}
	prev := runtime.GOMAXPROCS(1)
	one := render()
	runtime.GOMAXPROCS(8)
	eight := render()
	runtime.GOMAXPROCS(prev)
	if one != eight {
		t.Fatalf("metric output differs across GOMAXPROCS:\nP=1: %s\nP=8: %s", one, eight)
	}
}

// TestTracingDoesNotPerturbResults attaches the tracer to the chaos gauntlet
// and the OLTP cell and demands byte-identical verdicts and metrics versus
// an untraced run of the same seed: recording spans must be a pure
// observation, never a virtual-time side effect (obs determinism rule 2).
func TestTracingDoesNotPerturbResults(t *testing.T) {
	chaosRun := func(tr *obs.Tracer) string {
		return chaosFingerprint(RunChaos(ChaosConfig{
			Kind: cdb.CDB2, Span: 4 * time.Second, Concurrency: 4, Seed: 7,
			Tracer: tr,
		}))
	}
	off := chaosRun(nil)
	on := chaosRun(obs.NewTracer("cdb2", &obs.CountSink{}))
	if off != on {
		t.Fatalf("chaos verdict sheet differs with tracing attached:\noff: %s\non:  %s", off, on)
	}

	oltpRun := func(tr *obs.Tracer) string {
		o := RunOLTP(OLTPConfig{
			Kind: cdb.RDS, Mix: core.MixReadWrite, Concurrency: 16,
			Warmup: 500 * time.Millisecond, Measure: time.Second, Seed: 7,
			Tracer: tr,
		})
		return fmt.Sprintf("tps=%v p50=%v p99=%v hit=%v", o.TPS, o.P50, o.P99, o.HitRatio)
	}
	if off, on := oltpRun(nil), oltpRun(obs.NewTracer("rds", nil)); off != on {
		t.Fatalf("OLTP metrics differ with tracing attached:\noff: %s\non:  %s", off, on)
	}
}
