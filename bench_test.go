// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section. Each benchmark regenerates its artifact at a
// reduced-but-faithful scale (shapes are slot-length invariant in the
// simulator) and reports the rendered report length so the work cannot be
// optimized away. Run a single artifact with e.g.
//
//	go test -bench BenchmarkTableV -benchtime 1x
//
// or everything with `go test -bench . -benchtime 1x`. The same drivers run
// at full paper scale via `go run ./cmd/cloudybench run all -scale paper`.
package cloudybench

import (
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/experiments"
	"cloudybench/internal/obs"
)

// benchScale is the shared "bench" scale (experiments.Bench): windows
// compressed further than Quick so the whole suite of eleven artifacts
// completes in seconds. The same scale is reachable from the CLI via
// `cloudybench run all -scale bench`.
var benchScale = experiments.Bench

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(id, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty report")
		}
		b.ReportMetric(float64(len(out)), "report_bytes")
	}
}

// BenchmarkFigure5 regenerates the transaction-processing comparison
// (TPS across scale factor, mix, and concurrency — paper Figure 5).
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "f5") }

// BenchmarkTableV regenerates the P-Score table with the detailed
// resource-cost breakdown (paper Table V).
func BenchmarkTableV(b *testing.B) { runExperiment(b, "t5") }

// BenchmarkFigure6 regenerates the elasticity evaluation: TPS, total cost,
// and E1-Score across the four elastic patterns (paper Figure 6).
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "f6") }

// BenchmarkTableVI regenerates the per-transition scaling time and cost of
// the serverless SUTs (paper Table VI).
func BenchmarkTableVI(b *testing.B) { runExperiment(b, "t6") }

// BenchmarkTableVII regenerates the multi-tenancy evaluation across the
// four contention patterns (paper Table VII).
func BenchmarkTableVII(b *testing.B) { runExperiment(b, "t7") }

// BenchmarkTableVIII regenerates the fail-over F-Score and R-Score table
// (paper Table VIII).
func BenchmarkTableVIII(b *testing.B) { runExperiment(b, "t8") }

// BenchmarkFigure7 regenerates CDB4's promote-an-RO fail-over timeline
// (paper Figure 7).
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "f7") }

// BenchmarkLagTime regenerates the replication lag evaluation across the
// four IUD mixes (paper §III-F).
func BenchmarkLagTime(b *testing.B) { runExperiment(b, "lag") }

// BenchmarkTableIX regenerates the unified PERFECT comparison including
// the actual-cost starred variants (paper Table IX).
func BenchmarkTableIX(b *testing.B) { runExperiment(b, "t9") }

// BenchmarkFigure8 regenerates the buffer-size sweep for RDS, CDB1, and
// CDB4 (paper Figure 8).
func BenchmarkFigure8(b *testing.B) { runExperiment(b, "f8") }

// BenchmarkFigure9 regenerates the CPU-allocation comparison of
// CloudyBench against SysBench and TPC-C on CDB3 (paper Figure 9).
func BenchmarkFigure9(b *testing.B) { runExperiment(b, "f9") }

// BenchmarkAblations runs the design-choice ablations DESIGN.md calls out:
// parallel replay, the remote buffer pool, and redo pushdown.
func BenchmarkAblations(b *testing.B) { runExperiment(b, "ablations") }

// benchOLTPCell runs one small OLTP cell with the given tracer — the
// substrate for the tracer-overhead pair below. The two benchmarks run the
// identical simulation; comparing their ns/op bounds the tracing tax (the
// committed measurement is `go run ./benchmark`'s bench.trace_overhead_frac),
// and the nil-sink variant's allocs/op guards the zero-cost-by-default
// promise at the whole-run level.
func benchOLTPCell(b *testing.B, tr *obs.Tracer) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := evaluator.RunOLTP(evaluator.OLTPConfig{
			Kind: cdb.CDB1, Mix: core.MixReadWrite, Concurrency: 16,
			Warmup: 200 * time.Millisecond, Measure: 800 * time.Millisecond,
			Seed: 42, Tracer: tr,
		})
		if res.TPS <= 0 {
			b.Fatal("zero TPS")
		}
		b.ReportMetric(res.TPS, "virtual_tps")
	}
}

// BenchmarkTraceOff measures the OLTP cell with tracing disabled (nil
// tracer): the baseline every instrumented hot path must stay on.
func BenchmarkTraceOff(b *testing.B) { benchOLTPCell(b, nil) }

// BenchmarkTraceOn measures the same cell with the tracer attached to a
// counting sink — the full cost of span recording and aggregation.
func BenchmarkTraceOn(b *testing.B) {
	benchOLTPCell(b, obs.NewTracer("cdb1", &obs.CountSink{}))
}

// BenchmarkTraceTimeline measures the same cell with the tracer feeding a
// Timeline sink (1s windows) — the soak runner's recording path. The delta
// over BenchmarkTraceOn is the pure cost of windowed histogram
// aggregation.
func BenchmarkTraceTimeline(b *testing.B) {
	benchOLTPCell(b, obs.NewTracer("cdb1", obs.NewTimeline("cdb1", time.Second)))
}

// BenchmarkSoak regenerates the soak comparison artifact (windowed
// telemetry, rolling chaos, in-flight sweeps, CSV/Markdown render) at the
// bench scale.
func BenchmarkSoak(b *testing.B) { runExperiment(b, "soak") }

// BenchmarkTracerRecord microbenchmarks the span hot path itself: nil
// tracer (the off switch — must not allocate) vs an attached tracer with an
// open transaction trace.
func BenchmarkTracerRecord(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		b.ReportAllocs()
		var tr *obs.Tracer
		key := new(int)
		for i := 0; i < b.N; i++ {
			tr.Record(key, obs.KindCPU, 0, time.Millisecond)
		}
	})
	b.Run("attached", func(b *testing.B) {
		b.ReportAllocs()
		tr := obs.NewTracer("bench", nil)
		key := new(int)
		tr.StartTxn(key, "T1", 0)
		for i := 0; i < b.N; i++ {
			tr.Record(key, obs.KindCPU, 0, time.Millisecond)
		}
		tr.FinishTxn(key, "commit", time.Millisecond)
	})
}
