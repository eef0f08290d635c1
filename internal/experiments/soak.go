package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"cloudybench/internal/cdb"
	"cloudybench/internal/check"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/report"
)

// soakSheet digests one SUT's soak result into the renderer's neutral
// sheet form.
func soakSheet(r evaluator.SoakResult) report.SoakSheet {
	sh := report.SoakSheet{
		SUT: string(r.Kind), Days: r.Days, Window: r.Window,
		Agg:     r.Agg,
		Commits: r.Commits, Errors: r.Errors, Terminals: r.Terminals,
		TotalCost: r.TotalCost,
	}
	for _, w := range r.Windows {
		sh.Windows = append(sh.Windows, report.SoakWindowRow{
			Index: w.Index, Start: w.Start, End: w.End,
			Txns: w.Txns, Commits: w.Commits, Errors: w.Errors,
			P50: w.P50, P99: w.P99, Throughput: w.Throughput,
			Cost: w.Cost, CostPer1kTxn: w.CostPer1kTxn,
		})
	}
	for _, s := range r.Sweeps {
		sh.Sweeps = append(sh.Sweeps, report.SoakSweepRow{
			At: s.At, Window: s.Window, Detail: check.SweepLine(s.Verdicts), Pass: s.Passed(),
		})
	}
	for _, a := range r.Anomalies {
		sh.Anomalies = append(sh.Anomalies, report.SoakAnomalyRow{
			At: a.At, Window: a.Window, Kind: a.Kind, Detail: a.Detail,
		})
	}
	for _, c := range r.Applied {
		sh.Chaos = append(sh.Chaos, report.SoakChaosRow{
			At: c.At, Kind: string(c.Kind), Target: c.Target,
		})
	}
	for _, v := range r.Verdicts {
		sh.Verdicts = append(sh.Verdicts, report.SoakVerdictRow{
			Name: v.Name, Passed: v.Passed, Checked: v.Checked,
		})
	}
	return sh
}

// soakCells returns the soak's cells, one per SUT.
func (s *Session) soakCells() []evaluator.SoakResult {
	sc := s.sc
	return sessionCells(s, perSUT(func(kind cdb.Kind) evaluator.SoakConfig {
		return evaluator.SoakConfig{
			Kind: kind, SF: 1,
			Days: sc.SoakDays, Window: sc.SoakWindow, Burst: sc.SoakBurst,
			Concurrency: sc.SoakConc, SweepEvery: sc.SoakSweepEvery,
			Seed: sc.Seed,
		}
	}), evaluator.RunSoak)
}

// Soak runs the multi-day longitudinal soak on every SUT — duty-cycled
// bursts per timeline window, the rolling chaos schedule, tenant churn, and
// in-flight invariant sweeps — then renders the comparison artifact. The
// returned string is the Markdown document; with sc.ArtifactDir set, the
// same content lands in soak.md next to the flat soak.csv, so one command
// produces the whole comparison bundle. A file it cannot write is the
// returned error.
func Soak(s *Session) (string, error) {
	sc, results := s.sc, s.soakCells()
	sheets := make([]report.SoakSheet, len(results))
	for i, r := range results {
		sheets[i] = soakSheet(r)
	}
	days, window := sc.SoakDays, sc.SoakWindow
	if len(results) > 0 {
		days, window = results[0].Days, results[0].Window
	}
	title := fmt.Sprintf("CloudyBench soak — %d virtual days, %v windows, scale %s",
		days, window, sc.Name)
	md := report.SoakMarkdown(title, sheets)

	if sc.ArtifactDir != "" {
		for _, f := range []struct{ name, content string }{
			{"soak.csv", report.SoakCSV(sheets)},
			{"soak.md", md},
		} {
			if err := os.WriteFile(filepath.Join(sc.ArtifactDir, f.name), []byte(f.content), 0o644); err != nil {
				return "", fmt.Errorf("soak: %w", err)
			}
		}
		md += fmt.Sprintf("\nWrote soak.csv and soak.md to %s\n", sc.ArtifactDir)
	}
	return md, nil
}
