package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/obs"
	"cloudybench/internal/report"
)

// OLTPTrace runs one read-write OLTP cell per SUT with the virtual-time
// tracer attached and renders each system's stage breakdown — where a
// transaction's virtual time actually goes (CPU, lock waits, page IO, WAL
// appends, network hops, checkpoint interference). With sc.TraceDir set it
// additionally writes trace_<sut>.jsonl span files and one combined
// metrics.prom Prometheus-text snapshot into the directory; a file it cannot
// create or write is the returned error, which names the path.
//
// This is the paper's "why is SUT X slower" companion to Figure 5: the TPS
// tables say CDB2 trails CDB1; the stage breakdown shows the extra log-hop
// and page-service time that explains it.
func OLTPTrace(sc Scale) (string, []*obs.StageAgg, error) {
	var b strings.Builder
	var aggs []*obs.StageAgg
	emit := sc.TraceDir != ""
	conc := 50
	if len(sc.Concurrency) > 0 {
		conc = sc.Concurrency[0]
	}
	// Each cell traces one SUT's OLTP run and, when emitting, owns its own
	// trace_<sut>.jsonl file — cells never share file handles, so the fan-out
	// is safe and the per-SUT files are identical to a sequential run.
	type traceCell struct {
		agg *obs.StageAgg
		res evaluator.OLTPResult
		err error
	}
	cells := runCells(len(SUTs), func(i int) traceCell {
		kind := SUTs[i]
		var sink obs.Sink
		var file *os.File
		var jsonl *obs.JSONLSink
		if emit {
			path := filepath.Join(sc.TraceDir, fmt.Sprintf("trace_%s.jsonl", kind))
			f, err := os.Create(path)
			if err != nil {
				return traceCell{err: fmt.Errorf("trace: %w", err)}
			}
			file = f
			jsonl = obs.NewJSONLSink(f)
			sink = jsonl
		}
		tr := obs.NewTracer(string(kind), sink)
		res := evaluator.RunOLTP(evaluator.OLTPConfig{
			Kind: kind, SF: 1, Mix: core.MixReadWrite,
			Concurrency: conc,
			Warmup:      sc.Warmup, Measure: sc.Measure,
			Seed:   sc.Seed,
			Tracer: tr,
		})
		if file != nil {
			err := jsonl.Err()
			if cerr := file.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return traceCell{err: fmt.Errorf("trace: writing %s: %w", file.Name(), err)}
			}
		}
		return traceCell{agg: tr.Agg(), res: res}
	})
	for i, c := range cells {
		if c.err != nil {
			return "", nil, c.err
		}
		aggs = append(aggs, c.agg)
		fmt.Fprintf(&b, "%s: TPS=%s p50=%s p99=%s\n\n",
			SUTs[i], report.F(c.res.TPS), report.Dur(c.res.P50), report.Dur(c.res.P99))
		b.WriteString(report.TxnSummary(c.agg))
		b.WriteByte('\n')
		b.WriteString(report.StageBreakdown(c.agg))
		b.WriteByte('\n')
	}
	if emit {
		path := filepath.Join(sc.TraceDir, "metrics.prom")
		f, err := os.Create(path)
		if err != nil {
			return "", nil, fmt.Errorf("trace: %w", err)
		}
		werr := obs.WritePrometheus(f, aggs...)
		cerr := f.Close()
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			return "", nil, fmt.Errorf("trace: writing %s: %w", path, werr)
		}
		fmt.Fprintf(&b, "Wrote %d JSONL trace files and metrics.prom to %s\n", len(SUTs), sc.TraceDir)
	}
	return b.String(), aggs, nil
}
