package report

import (
	"fmt"
	"strings"
	"time"

	"cloudybench/internal/check"
	"cloudybench/internal/obs"
)

// The soak comparison artifact: one CSV and one Markdown document covering
// every SUT's multi-day timeline — window rows, in-flight sweep verdicts,
// anomalies, the chaos log, stage breakdowns, and cost-per-throughput
// curves. The input structs are deliberately plain (no evaluator types) so
// the renderer stays a pure data -> bytes function; both renderers are
// byte-deterministic for a given input.

// SoakSheet is one SUT's longitudinal report card, pre-digested for
// rendering.
type SoakSheet struct {
	SUT    string
	Days   int
	Window time.Duration

	Windows   []SoakWindowRow
	Sweeps    []SoakSweepRow
	Anomalies []SoakAnomalyRow
	Chaos     []SoakChaosRow
	Verdicts  []SoakVerdictRow

	// Agg, if set, adds the whole-run stage breakdown to the Markdown.
	Agg *obs.StageAgg

	Commits   int64
	Errors    int64
	Terminals int64
	TotalCost float64
}

// SoakWindowRow is one timeline window's digest.
type SoakWindowRow struct {
	Index      int
	Start, End time.Duration
	Txns       int64
	Commits    int64
	Errors     int64
	P50, P99   time.Duration
	Throughput float64
	Cost       float64
	// CostPer1kTxn is the window's RUC cost per thousand commits (zero
	// when the window committed nothing).
	CostPer1kTxn float64
}

// SoakSweepRow is one in-flight invariant sweep.
type SoakSweepRow struct {
	At     time.Duration
	Window int
	Detail string
	Pass   bool
}

// SoakAnomalyRow is one flagged window.
type SoakAnomalyRow struct {
	At     time.Duration
	Window int
	Kind   string
	Detail string
}

// SoakChaosRow is one applied fault.
type SoakChaosRow struct {
	At     time.Duration
	Kind   string
	Target string
}

// SoakVerdictRow is one end-of-run invariant verdict.
type SoakVerdictRow struct {
	Name    string
	Passed  bool
	Checked int
}

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

// SoakCSV renders every sheet into one flat CSV. The leading kind column
// discriminates the row type (window, sweep, anomaly, chaos, verdict,
// total); rows of all SUTs share one superset header so the file loads
// into a single frame and filters by kind.
func SoakCSV(sheets []SoakSheet) string {
	var b strings.Builder
	b.WriteString("kind,sut,window,at_s,end_s,txns,commits,errors,p50_ms,p99_ms,throughput_tps,cost_ruc,cost_per_1k_txn,pass,detail\n")
	row := func(cells ...string) {
		b.WriteString(strings.Join(cells, ","))
		b.WriteByte('\n')
	}
	for _, sh := range sheets {
		sut := csvField(sh.SUT)
		for _, w := range sh.Windows {
			row("window", sut, fmt.Sprint(w.Index), csvSecs(w.Start), csvSecs(w.End),
				fmt.Sprint(w.Txns), fmt.Sprint(w.Commits), fmt.Sprint(w.Errors),
				csvMs(w.P50), csvMs(w.P99), fmt.Sprintf("%.3f", w.Throughput),
				fmt.Sprintf("%.6f", w.Cost), fmt.Sprintf("%.6f", w.CostPer1kTxn), "", "")
		}
		for _, s := range sh.Sweeps {
			row("sweep", sut, fmt.Sprint(s.Window), csvSecs(s.At), "", "", "", "",
				"", "", "", "", "", check.PassFail(s.Pass), csvField(s.Detail))
		}
		for _, a := range sh.Anomalies {
			row("anomaly", sut, fmt.Sprint(a.Window), csvSecs(a.At), "", "", "", "",
				"", "", "", "", "", "", csvField(a.Kind+": "+a.Detail))
		}
		for _, c := range sh.Chaos {
			detail := c.Kind
			if c.Target != "" {
				detail += " " + c.Target
			}
			row("chaos", sut, "", csvSecs(c.At), "", "", "", "",
				"", "", "", "", "", "", csvField(detail))
		}
		for _, v := range sh.Verdicts {
			row("verdict", sut, "", "", "", fmt.Sprint(v.Checked), "", "",
				"", "", "", "", "", check.PassFail(v.Passed), csvField(v.Name))
		}
		per1k := 0.0
		if sh.Commits > 0 {
			per1k = sh.TotalCost / float64(sh.Commits) * 1000
		}
		row("total", sut, "", "", "", fmt.Sprint(sh.Commits+sh.Errors+sh.Terminals),
			fmt.Sprint(sh.Commits), fmt.Sprint(sh.Errors), "", "", "",
			fmt.Sprintf("%.6f", sh.TotalCost), fmt.Sprintf("%.6f", per1k), "", "")
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
func SoakMarkdown(title string, sheets []SoakSheet) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)

	for _, sh := range sheets {
		fmt.Fprintf(&b, "\n## %s — %d virtual days, %v windows\n\n", sh.SUT, sh.Days, sh.Window)

		b.WriteString("| window | start | txns | commits | errors | p50 | p99 | tput (tps) | cost (RUC) | RUC/1k txn |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|---|---|\n")
		for _, w := range sh.Windows {
			fmt.Fprintf(&b, "| %d | %s | %d | %d | %d | %s | %s | %s | %s | %s |\n",
				w.Index, mdDur(w.Start), w.Txns, w.Commits, w.Errors,
				Dur(w.P50), Dur(w.P99), F(w.Throughput), F(w.Cost), F(w.CostPer1kTxn))
		}
		fmt.Fprintf(&b, "\n**Totals:** %d commits, %d errors, %d abandoned, %s RUC.\n",
			sh.Commits, sh.Errors, sh.Terminals, F(sh.TotalCost))

		b.WriteString("\n### In-flight invariant sweeps\n\n")
		if len(sh.Sweeps) == 0 {
			b.WriteString("None ran.\n")
		} else {
			b.WriteString("| at | window | verdicts | result |\n|---|---|---|---|\n")
			for _, s := range sh.Sweeps {
				fmt.Fprintf(&b, "| %s | %d | %s | %s |\n",
					mdDur(s.At), s.Window, s.Detail, check.PassFail(s.Pass))
			}
		}

		b.WriteString("\n### Anomalies\n\n")
		if len(sh.Anomalies) == 0 {
			b.WriteString("None detected.\n")
		} else {
			b.WriteString("| at | window | kind | detail |\n|---|---|---|---|\n")
			for _, a := range sh.Anomalies {
				fmt.Fprintf(&b, "| %s | %d | %s | %s |\n", mdDur(a.At), a.Window, a.Kind, a.Detail)
			}
		}

		b.WriteString("\n### Chaos log\n\n")
		if len(sh.Chaos) == 0 {
			b.WriteString("No faults injected.\n")
		} else {
			b.WriteString("| at | fault | target |\n|---|---|---|\n")
			for _, c := range sh.Chaos {
				target := c.Target
				if target == "" {
					target = "—"
				}
				fmt.Fprintf(&b, "| %s | %s | %s |\n", mdDur(c.At), c.Kind, target)
			}
		}

		if len(sh.Verdicts) > 0 {
			b.WriteString("\n### Final verdicts\n\n")
			for _, v := range sh.Verdicts {
				fmt.Fprintf(&b, "- %s: %s (%d checked)\n", v.Name, check.PassFail(v.Passed), v.Checked)
			}
		}

		if sh.Agg != nil {
			b.WriteString("\n### Stage breakdown\n\n```\n")
			b.WriteString(StageBreakdown(sh.Agg))
			b.WriteString("```\n")
		}
	}

	// Cross-SUT cost efficiency: the totals table plus a per-window
	// RUC-per-1k-commit sparkline per SUT (the cost-per-throughput curve —
	// spikes line up with the fault windows above).
	b.WriteString("\n## Cost efficiency\n\n")
	b.WriteString("| SUT | commits | total RUC | RUC/1k txn |\n|---|---|---|---|\n")
	for _, sh := range sheets {
		per1k := 0.0
		if sh.Commits > 0 {
			per1k = sh.TotalCost / float64(sh.Commits) * 1000
		}
		fmt.Fprintf(&b, "| %s | %d | %s | %s |\n", sh.SUT, sh.Commits, F(sh.TotalCost), F(per1k))
	}
	b.WriteString("\nRUC per 1k transactions, window by window:\n\n```\n")
	for _, sh := range sheets {
		vals := make([]float64, len(sh.Windows))
		for i, w := range sh.Windows {
			vals[i] = w.CostPer1kTxn
		}
		b.WriteString(Series(sh.SUT, vals, 0))
		b.WriteByte('\n')
	}
	b.WriteString("```\n")
	return b.String()
}
