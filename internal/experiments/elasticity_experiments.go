package experiments

import (
	"fmt"
	"strings"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/patterns"
	"cloudybench/internal/report"
)

// elasticCell keys an elasticity cell. Every other field of its config
// comes from the session's scale.
type elasticCell struct {
	kind    cdb.Kind
	pattern int // index into patterns.ElasticPatterns()
}

// elasticity returns the session's cells of every elastic pattern on every
// one of kinds, pattern-major.
func (s *Session) elasticity(kinds []cdb.Kind) []evaluator.ElasticityResult {
	pats := patterns.ElasticPatterns()
	var keys []elasticCell
	for pat := range pats {
		for _, kind := range kinds {
			keys = append(keys, elasticCell{kind, pat})
		}
	}
	return sessionCells(s, keys, func(k elasticCell) evaluator.ElasticityResult {
		return evaluator.RunElasticity(evaluator.ElasticityConfig{
			Kind: k.kind, Pattern: pats[k.pattern], Mix: core.MixReadWrite,
			Tau: s.sc.Tau, SlotLength: s.sc.SlotLength, CostSlots: s.sc.CostSlots,
			Seed: s.sc.Seed,
		})
	})
}

// Figure6 regenerates the elasticity evaluation: average TPS, total cost
// (execution plus scaling over the scale's CostSlots-slot costing window),
// and E1-Score per SUT across the four elastic patterns.
func Figure6(s *Session) (string, error) {
	results := s.elasticity(SUTs)
	var b strings.Builder
	b.WriteString("Figure 6 — Elasticity Evaluation (RW mix)\n\n")
	i := 0
	for _, pat := range patterns.ElasticPatterns() {
		tbl := report.NewTable(
			fmt.Sprintf("Pattern %s, concurrency %v", pat.Name, pat.Concurrency(s.sc.Tau)),
			"System", "AvgTPS", "TotalCost", "ActualCost", "E1-Score")
		for _, kind := range SUTs {
			r := results[i]
			i++
			tbl.AddRow(string(kind), report.F(r.AvgTPS),
				report.Money(r.TotalCost), report.Money(r.ActualCost), report.F(r.E1Score))
		}
		b.WriteString(tbl.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}

// TableVI regenerates the autoscaling detail: per-transition scaling time
// and scaling cost for the three serverless SUTs, from their Figure 6
// cells.
func TableVI(s *Session) (string, error) {
	var autoscaling []cdb.Kind
	for _, kind := range SUTs {
		if cdb.ProfileFor(kind).Autoscale != nil {
			autoscaling = append(autoscaling, kind) // Table VI covers only the autoscaling SUTs
		}
	}
	results := s.elasticity(autoscaling)
	var b strings.Builder
	b.WriteString("Table VI — Scaling time and cost during autoscaling (serverless SUTs)\n\n")
	i := 0
	for _, pat := range patterns.ElasticPatterns() {
		tbl := report.NewTable(
			fmt.Sprintf("Pattern %s", pat.Name),
			"System", "Transition", "ScalingTime", "ScalingCost")
		for _, kind := range autoscaling {
			r := results[i]
			i++
			for _, tr := range r.Transitions {
				tbl.AddRow(string(kind),
					fmt.Sprintf("%d->%d", tr.FromCon, tr.ToCon),
					report.Dur(tr.ScalingTime), report.Money(tr.ScalingCost))
			}
		}
		b.WriteString(tbl.String())
		b.WriteString("\n")
	}
	return b.String(), nil
}
