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

// figure6Cells returns Figure 6's cells, every elastic pattern on every
// SUT (pattern-major), running them on the session's first request.
func (s *Session) figure6Cells() []evaluator.ElasticityResult {
	if s.elasticity != nil {
		return s.elasticity
	}
	var cfgs []evaluator.ElasticityConfig
	for _, pat := range patterns.ElasticPatterns() {
		for _, kind := range SUTs {
			cfgs = append(cfgs, evaluator.ElasticityConfig{
				Kind: kind, Pattern: pat, Mix: core.MixReadWrite,
				Tau: s.sc.Tau, SlotLength: s.sc.SlotLength, CostSlots: s.sc.CostSlots,
				Seed: s.sc.Seed,
			})
		}
	}
	s.elasticity = runCells(len(cfgs), func(i int) evaluator.ElasticityResult {
		return evaluator.RunElasticity(cfgs[i])
	})
	return s.elasticity
}

// Figure6 regenerates the elasticity evaluation: average TPS, total cost
// (execution plus scaling over the scale's CostSlots-slot costing window),
// and E1-Score per SUT across the four elastic patterns.
func Figure6(s *Session) string {
	results := s.figure6Cells()
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
	return b.String()
}

// TableVI regenerates the autoscaling detail: per-transition scaling time
// and scaling cost for the three serverless SUTs.
func TableVI(sc Scale) (string, []evaluator.ElasticityResult) {
	var autoscaling []cdb.Kind
	for _, kind := range SUTs {
		if cdb.ProfileFor(kind).Autoscale != nil {
			autoscaling = append(autoscaling, kind) // Table VI covers only the autoscaling SUTs
		}
	}
	var cfgs []evaluator.ElasticityConfig
	for _, pat := range patterns.ElasticPatterns() {
		for _, kind := range autoscaling {
			cfgs = append(cfgs, evaluator.ElasticityConfig{
				Kind: kind, Pattern: pat, Mix: core.MixReadWrite,
				Tau: sc.Tau, SlotLength: sc.SlotLength, CostSlots: sc.CostSlots,
				Seed: sc.Seed,
			})
		}
	}
	results := runCells(len(cfgs), func(i int) evaluator.ElasticityResult {
		return evaluator.RunElasticity(cfgs[i])
	})
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
	return b.String(), results
}
