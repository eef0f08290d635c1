package experiments

import (
	"fmt"
	"strings"

	"cloudybench/internal/evaluator"
	"cloudybench/internal/report"
)

// Chaos runs every SUT through the standard fault gauntlet (disk stall,
// cache drop, link degrade, IO-error burst, node pause) while the invariant
// recorder watches the transaction history, then
// reports a verdict sheet per system plus the recovery metrics the faults
// left behind. Deterministic: the same scale and seed reproduce the report
// byte for byte.
func Chaos(sc Scale) (string, []evaluator.ChaosResult) {
	results := runCells(len(SUTs), func(i int) evaluator.ChaosResult {
		return evaluator.RunChaos(evaluator.ChaosConfig{
			Kind: SUTs[i], Span: sc.ChaosSpan, Concurrency: sc.ChaosConc, Seed: sc.Seed,
		})
	})
	tbl := report.NewTable("Chaos gauntlet — invariant verdicts under injected faults",
		"System", "Verdict", "Commits", "Errors", "Faults", "TPS", "Quiesce")
	var detail strings.Builder
	for _, r := range results {
		kind := r.Kind
		tbl.AddRow(string(kind), passFail(r.Passed()),
			fmt.Sprintf("%d", r.Commits),
			fmt.Sprintf("%d", r.Errors),
			fmt.Sprintf("%d", len(r.Applied)),
			report.F(r.TPS),
			report.Dur(r.QuiesceTime))
		fmt.Fprintf(&detail, "\n%s invariants:\n", kind)
		for _, v := range r.Verdicts {
			fmt.Fprintf(&detail, "  %-18s %s\n", v.Name, v)
		}
	}
	var b strings.Builder
	b.WriteString(tbl.String())
	b.WriteString(detail.String())
	b.WriteString("\nFault schedule (per run): disk-stall(rw), cache-drop(rw), link-degrade(all), io-error-burst(rw), node-pause(rw), disk-stall(ro0)\n")
	return b.String(), results
}
