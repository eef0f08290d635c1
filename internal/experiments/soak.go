package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/check"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/report"
)

// soakCells returns the soak's cells, one per SUT.
func (s *Session) soakCells() []evaluator.SoakResult {
	sc := s.sc
	return sessionCells(s, perSUT(func(kind cdb.Kind) evaluator.SoakConfig {
		return evaluator.SoakConfig{
			Kind: kind,
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
	days, window := sc.SoakDays, sc.SoakWindow
	if len(results) > 0 {
		days, window = results[0].Days, results[0].Window
	}
	title := fmt.Sprintf("CloudyBench soak — %d virtual days, %v windows, scale %s",
		days, window, sc.Name)
	md := SoakMarkdown(title, results)

	if sc.ArtifactDir != "" {
		for _, f := range []struct{ name, content string }{
			{"soak.csv", SoakCSV(results)},
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

// The soak comparison artifact: one CSV and one Markdown document covering
// every SUT's multi-day timeline — window rows, in-flight sweep verdicts,
// anomalies, the chaos log, stage breakdowns, and cost-per-throughput
// curves. Both renderers are byte-deterministic for a given input.

// csvField quotes a CSV field when it contains a separator, quote, or
// newline (RFC 4180).
func csvField(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func csvSecs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }
func csvMs(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// soakPer1k is a run's RUC cost per thousand commits (zero without commits).
func soakPer1k(r evaluator.SoakResult) float64 {
	if r.Commits == 0 {
		return 0
	}
	return r.TotalCost / float64(r.Commits) * 1000
}

// SoakCSV renders every SUT's soak into one flat CSV. The leading kind
// column discriminates the row type (window, sweep, anomaly, chaos, verdict,
// total); rows of all SUTs share one superset header so the file loads into
// a single frame and filters by kind.
func SoakCSV(results []evaluator.SoakResult) string {
	var b strings.Builder
	b.WriteString("kind,sut,window,at_s,end_s,txns,commits,errors,p50_ms,p99_ms,throughput_tps,cost_ruc,cost_per_1k_txn,pass,detail\n")
	row := func(cells ...string) {
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	for _, r := range results {
		sut := csvField(string(r.Kind))
		// The total row counts what the window rows count: finished
		// transactions and those of them that ended in error. The
		// collector's counts, which also see failed attempts and abandoned
		// transactions, stay in the Markdown's labelled Totals line.
		var txns, errs int64
		for _, w := range r.Windows {
			txns, errs = txns+w.Txns, errs+w.Errors
			row("window", sut, fmt.Sprint(w.Index), csvSecs(w.Start), csvSecs(w.End),
				fmt.Sprint(w.Txns), fmt.Sprint(w.Commits), fmt.Sprint(w.Errors),
				csvMs(w.P50), csvMs(w.P99), fmt.Sprintf("%.3f", w.Throughput),
				fmt.Sprintf("%.6f", w.Cost), fmt.Sprintf("%.6f", w.CostPer1kTxn), "", "")
		}
		for _, s := range r.Sweeps {
			row("sweep", sut, fmt.Sprint(s.Window), csvSecs(s.At), "", "", "", "",
				"", "", "", "", "", check.PassFail(s.Passed()), csvField(check.SweepLine(s.Verdicts)))
		}
		for _, a := range r.Anomalies {
			row("anomaly", sut, fmt.Sprint(a.Window), csvSecs(a.At), "", "", "", "",
				"", "", "", "", "", "", csvField(a.Kind+": "+a.Detail))
		}
		for _, c := range r.Applied {
			detail := string(c.Kind)
			if c.Target != "" {
				detail += " " + c.Target
			}
			row("chaos", sut, "", csvSecs(c.At), "", "", "", "",
				"", "", "", "", "", "", csvField(detail))
		}
		for _, v := range r.Verdicts {
			row("verdict", sut, "", "", "", fmt.Sprint(v.Checked), "", "",
				"", "", "", "", "", check.PassFail(v.Passed), csvField(v.Name))
		}
		row("total", sut, "", "", "", fmt.Sprint(txns),
			fmt.Sprint(r.Commits), fmt.Sprint(errs), "", "", "",
			fmt.Sprintf("%.6f", r.TotalCost), fmt.Sprintf("%.6f", soakPer1k(r)), "", "")
	}
	return b.String()
}

// mdDur renders virtual offsets as day+clock (e.g. d1 18:00) — soak spans
// are days long, so raw second counts are unreadable.
func mdDur(d time.Duration) string {
	day := d / (24 * time.Hour)
	rem := d % (24 * time.Hour)
	return fmt.Sprintf("d%d %02d:%02d", day, int(rem.Hours()), int(rem.Minutes())%60)
}

// SoakMarkdown renders the comparison artifact: per-SUT timeline tables,
// sweep and anomaly logs, the chaos schedule as applied, stage breakdowns,
// and a cross-SUT cost-efficiency section with RUC-per-1k-transaction
// curves over the run.
func SoakMarkdown(title string, results []evaluator.SoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)

	for _, r := range results {
		fmt.Fprintf(&b, "\n## %s — %d virtual days, %v windows\n\n", r.Kind, r.Days, r.Window)

		b.WriteString("| window | start | txns | commits | errors | p50 | p99 | tput (tps) | cost (RUC) | RUC/1k txn |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
		for _, w := range r.Windows {
			fmt.Fprintf(&b, "| %d | %s | %d | %d | %d | %s | %s | %s | %s | %s |\n",
				w.Index, mdDur(w.Start), w.Txns, w.Commits, w.Errors,
				report.Dur(w.P50), report.Dur(w.P99), report.F(w.Throughput), report.F(w.Cost), report.F(w.CostPer1kTxn))
		}
		fmt.Fprintf(&b, "\n**Totals:** %d commits, %d errors, %d abandoned, %s RUC.\n",
			r.Commits, r.Errors, r.Terminals, report.F(r.TotalCost))

		b.WriteString("\n### In-flight invariant sweeps\n\n")
		if len(r.Sweeps) == 0 {
			b.WriteString("None ran.\n")
		} else {
			b.WriteString("| at | window | verdicts | result |\n|---|---|---|---|\n")
			for _, s := range r.Sweeps {
				fmt.Fprintf(&b, "| %s | %d | %s | %s |\n",
					mdDur(s.At), s.Window, check.SweepLine(s.Verdicts), check.PassFail(s.Passed()))
			}
		}

		b.WriteString("\n### Anomalies\n\n")
		if len(r.Anomalies) == 0 {
			b.WriteString("None detected.\n")
		} else {
			b.WriteString("| at | window | kind | detail |\n|---|---|---|---|\n")
			for _, a := range r.Anomalies {
				fmt.Fprintf(&b, "| %s | %d | %s | %s |\n", mdDur(a.At), a.Window, a.Kind, a.Detail)
			}
		}

		b.WriteString("\n### Chaos log\n\n")
		if len(r.Applied) == 0 {
			b.WriteString("No faults injected.\n")
		} else {
			b.WriteString("| at | fault | target |\n|---|---|---|\n")
			for _, c := range r.Applied {
				target := c.Target
				if target == "" {
					target = "—"
				}
				fmt.Fprintf(&b, "| %s | %s | %s |\n", mdDur(c.At), c.Kind, target)
			}
		}

		if len(r.Verdicts) > 0 {
			b.WriteString("\n### Final verdicts\n\n")
			for _, v := range r.Verdicts {
				fmt.Fprintf(&b, "- %s: %s (%d checked)\n", v.Name, check.PassFail(v.Passed), v.Checked)
			}
		}

		if r.Agg != nil {
			b.WriteString("\n### Stage breakdown\n\n```\n")
			b.WriteString(report.StageBreakdown(r.Agg))
			b.WriteString("```\n")
		}
	}

	// Cross-SUT cost efficiency: the totals table plus a per-window
	// RUC-per-1k-commit sparkline per SUT (the cost-per-throughput curve —
	// spikes line up with the fault windows above).
	b.WriteString("\n## Cost efficiency\n\n")
	b.WriteString("| SUT | commits | total RUC | RUC/1k txn |\n|---|---|---|---|\n")
	for _, r := range results {
		fmt.Fprintf(&b, "| %s | %d | %s | %s |\n", r.Kind, r.Commits, report.F(r.TotalCost), report.F(soakPer1k(r)))
	}
	b.WriteString("\nRUC per 1k transactions, window by window:\n\n```\n")
	for _, r := range results {
		vals := make([]float64, len(r.Windows))
		for i, w := range r.Windows {
			vals[i] = w.CostPer1kTxn
		}
		b.WriteString(report.Series(string(r.Kind), vals, 0))
		b.WriteByte('\n')
	}
	b.WriteString("```\n")
	return b.String()
}
