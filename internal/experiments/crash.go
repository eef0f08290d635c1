package experiments

import (
	"fmt"
	"strings"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/check"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/report"
)

// crashCells returns the crash gauntlet's cells, one per SUT.
func (s *Session) crashCells() []evaluator.CrashResult {
	return sessionCells(s, perSUT(func(kind cdb.Kind) evaluator.CrashConfig {
		return evaluator.CrashConfig{Kind: kind, Span: s.sc.CrashSpan, Concurrency: s.sc.CrashConc, Seed: s.sc.Seed}
	}), evaluator.RunCrash)
}

// Crash runs every SUT through the durability gauntlet: steady mixed traffic
// while the crash schedule kills the primary with a torn WAL tail, kills the
// replica (its volatile apply state dies and it resyncs from the primary's
// durable log), then kills the primary twice more — once clean, once torn
// again near the end of the window. Each kill's recovery is the real ARIES
// pass (analysis from the last fuzzy checkpoint, redo, undo, checksum-cut of
// the torn tail) priced into virtual time, so the recovery numbers are
// emergent from log volume, not scripted: full-redo architectures pay the
// whole redo window while log-is-the-database architectures pay analysis and
// undo only. The verdict judges the two contracts a crash must not break —
// every acknowledged commit survives, and no unacknowledged write
// resurrects. Deterministic: the same scale and seed reproduce the report
// byte for byte.
func Crash(s *Session) (string, error) {
	results := s.crashCells()
	tbl := report.NewTable("Crash gauntlet — WAL redo/undo, torn tails, durability verdicts",
		"System", "Verdict", "Commits", "Term", "Reroute", "Fenced", "Epoch", "Kills", "Torn", "Redo", "Undo")
	var detail strings.Builder
	for _, r := range results {
		// A kill landing while the node is still mid-recovery is recorded as
		// a skipped no-op (zero stats); the table counts only real crashes.
		fired, torn, redo, undo := 0, 0, 0, 0
		for _, c := range r.Crashes {
			if c.Stats.Records == 0 && c.Err == "" {
				continue
			}
			fired++
			if c.Stats.TornDetected {
				torn++
			}
			redo += c.Stats.RedoSince
			undo += c.Stats.UndoRecords
		}
		tbl.AddRow(string(r.Kind), check.PassFail(r.Passed()),
			fmt.Sprintf("%d", r.Commits),
			fmt.Sprintf("%d", r.Terminals),
			fmt.Sprintf("%d", r.Reroutes),
			fmt.Sprintf("%d", r.Fenced),
			fmt.Sprintf("%d", r.Epoch),
			fmt.Sprintf("%d", fired),
			fmt.Sprintf("%d", torn),
			fmt.Sprintf("%d", redo),
			fmt.Sprintf("%d", undo))

		writeVerdicts(&detail, r.Kind, r.Verdicts)
		fmt.Fprintf(&detail, "%s kills:\n", r.Kind)
		for _, c := range r.Crashes {
			switch {
			case c.Err != "":
				fmt.Fprintf(&detail, "  %10v  %-4s recovery failed: %s\n", c.At, c.Target, c.Err)
			case c.Stats.Records == 0:
				fmt.Fprintf(&detail, "  %10v  %-4s skipped (still recovering from the previous kill)\n",
					c.At, c.Target)
			default:
				tornNote := ""
				if c.Stats.TornDetected {
					tornNote = " torn-tail cut"
				}
				fmt.Fprintf(&detail, "  %10v  %-4s log=%d ckpt=%d redo=%d undo=%d losers=%d%s\n",
					c.At, c.Target, c.Stats.Records, c.Stats.CheckpointLSN,
					c.Stats.RedoSince, c.Stats.UndoRecords, c.Stats.Losers, tornNote)
			}
		}
		for _, ev := range r.Timeline {
			if strings.Contains(ev.Phase, "crash") || strings.Contains(ev.Phase, "service restored") ||
				strings.Contains(ev.Phase, "RW'") {
				fmt.Fprintf(&detail, "  %10v  %s\n", ev.At, ev.Phase)
			}
		}
	}

	var b strings.Builder
	b.WriteString(tbl.String())
	b.WriteString(detail.String())
	frac := func(f float64) time.Duration { return time.Duration(float64(s.sc.CrashSpan) * f) }
	fmt.Fprintf(&b, "\nCrash schedule (per run): kill rw@%v (torn tail), ro0@%v (resync), rw@%v, rw@%v (torn tail)\n",
		frac(0.25), frac(0.45), frac(0.65), frac(0.85))
	b.WriteString("Redo/Undo are records actually replayed/rolled back by recovery — the inputs recovery time is priced from\n")
	return b.String(), nil
}
