package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/obs"
	"cloudybench/internal/report"
)

// traceCell keys a traced OLTP cell by its SUT.
type traceCell struct{ kind cdb.Kind }

// tracedRun is a traced OLTP cell: its stage aggregate and result, or the
// error that kept it from writing its trace file.
type tracedRun struct {
	agg *obs.StageAgg
	res evaluator.OLTPResult
	err error
}

// traceCells returns the traced OLTP cells, one per SUT. With sc.TraceDir
// set, each writes its own trace_<sut>.jsonl once per session, so the
// files are identical to a sequential run's.
func (s *Session) traceCells() []tracedRun {
	sc := s.sc
	conc := 50
	if len(sc.Concurrency) > 0 {
		conc = sc.Concurrency[0]
	}
	keys := perSUT(func(kind cdb.Kind) traceCell { return traceCell{kind} })
	return sessionCells(s, keys, func(k traceCell) tracedRun {
		var sink obs.Sink
		var file *os.File
		var jsonl *obs.JSONLSink
		if sc.TraceDir != "" {
			f, err := os.Create(filepath.Join(sc.TraceDir, fmt.Sprintf("trace_%s.jsonl", k.kind)))
			if err != nil {
				return tracedRun{err: fmt.Errorf("trace: %w", err)}
			}
			file, jsonl = f, obs.NewJSONLSink(f)
			sink = jsonl
		}
		tr := obs.NewTracer(string(k.kind), sink)
		res := evaluator.RunOLTP(evaluator.OLTPConfig{
			Kind: k.kind, SF: 1, Mix: core.MixReadWrite, Concurrency: conc,
			Warmup: sc.Warmup, Measure: sc.Measure, Seed: sc.Seed, Tracer: tr,
		})
		if file != nil {
			err := jsonl.Err()
			if cerr := file.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return tracedRun{err: fmt.Errorf("trace: writing %s: %w", file.Name(), err)}
			}
		}
		return tracedRun{agg: tr.Agg(), res: res}
	})
}

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
func OLTPTrace(s *Session) (string, error) {
	var b strings.Builder
	var aggs []*obs.StageAgg
	for i, c := range s.traceCells() {
		if c.err != nil {
			return "", c.err
		}
		aggs = append(aggs, c.agg)
		fmt.Fprintf(&b, "%s: TPS=%s p50=%s p99=%s\n\n",
			SUTs[i], report.F(c.res.TPS), report.Dur(c.res.P50), report.Dur(c.res.P99))
		b.WriteString(report.TxnSummary(c.agg))
		b.WriteByte('\n')
		b.WriteString(report.StageBreakdown(c.agg))
		b.WriteByte('\n')
	}
	if dir := s.sc.TraceDir; dir != "" {
		path := filepath.Join(dir, "metrics.prom")
		f, err := os.Create(path)
		if err != nil {
			return "", fmt.Errorf("trace: %w", err)
		}
		werr := obs.WritePrometheus(f, aggs...)
		cerr := f.Close()
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			return "", fmt.Errorf("trace: writing %s: %w", path, werr)
		}
		fmt.Fprintf(&b, "Wrote %d JSONL trace files and metrics.prom to %s\n", len(SUTs), dir)
	}
	return b.String(), nil
}
