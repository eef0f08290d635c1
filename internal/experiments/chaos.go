package experiments

import (
	"fmt"
	"strings"

	"cloudybench/internal/cdb"
	"cloudybench/internal/check"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/report"
)

// chaosCells returns the chaos gauntlet's cells, one per SUT.
func (s *Session) chaosCells() []evaluator.ChaosResult {
	return sessionCells(s, perSUT(func(kind cdb.Kind) evaluator.ChaosConfig {
		return evaluator.ChaosConfig{Kind: kind, Span: s.sc.ChaosSpan, Concurrency: s.sc.ChaosConc, Seed: s.sc.Seed}
	}), evaluator.RunChaos)
}

// writeVerdicts writes a gauntlet cell's verdict sheet under its SUT.
func writeVerdicts(b *strings.Builder, kind cdb.Kind, verdicts []check.Verdict) {
	fmt.Fprintf(b, "\n%s invariants:\n", kind)
	for _, v := range verdicts {
		fmt.Fprintf(b, "  %-18s %s\n", v.Name, v)
	}
}

// Chaos runs every SUT through the standard fault gauntlet (disk stall,
// cache drop, link degrade, IO-error burst, node pause) while the invariant
// recorder watches the transaction history, then
// reports a verdict sheet per system plus the recovery metrics the faults
// left behind. Deterministic: the same scale and seed reproduce the report
// byte for byte.
func Chaos(s *Session) (string, error) {
	results := s.chaosCells()
	tbl := report.NewTable("Chaos gauntlet — invariant verdicts under injected faults",
		"System", "Verdict", "Commits", "Errors", "Faults", "TPS", "Quiesce")
	var detail strings.Builder
	for _, r := range results {
		kind := r.Kind
		tbl.AddRow(string(kind), check.PassFail(r.Passed()),
			fmt.Sprintf("%d", r.Commits),
			fmt.Sprintf("%d", r.Errors),
			fmt.Sprintf("%d", len(r.Applied)),
			report.F(r.TPS),
			report.Dur(r.QuiesceTime))
		writeVerdicts(&detail, kind, r.Verdicts)
	}
	var b strings.Builder
	b.WriteString(tbl.String())
	b.WriteString(detail.String())
	b.WriteString("\nFault schedule (per run): disk-stall(rw), cache-drop(rw), link-degrade(all), io-error-burst(rw), node-pause(rw), disk-stall(ro0)\n")
	return b.String(), nil
}
