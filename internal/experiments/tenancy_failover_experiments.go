package experiments

import (
	"fmt"
	"strings"
	"time"

	"cloudybench/internal/cluster"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/patterns"
	"cloudybench/internal/report"
)

// TableVII regenerates the multi-tenancy evaluation: per-pattern TPS,
// total provisioned resources, cost, and T-Score per SUT.
func TableVII(sc Scale) (string, []evaluator.TenancyResult) {
	var cfgs []evaluator.TenancyConfig
	for _, kind := range SUTs {
		for _, pk := range patterns.TenancyKinds {
			cfgs = append(cfgs, evaluator.TenancyConfig{
				Kind: kind, Pattern: patterns.PaperTenancy(pk),
				SlotLength: sc.SlotLength, Seed: sc.Seed,
			})
		}
	}
	results := runCells(len(cfgs), func(i int) evaluator.TenancyResult {
		return evaluator.RunTenancy(cfgs[i])
	})
	tbl := report.NewTable("Table VII — Multi-Tenancy Evaluation (3 tenants)",
		"System", "TPS(a)", "TPS(b)", "TPS(c)", "TPS(d)",
		"Resources", "Cost/min", "T(a)", "T(b)", "T(c)", "T(d)", "T(AVG)")
	for k, kind := range SUTs {
		var tps, tscores [4]float64
		var resources, cost string
		for i := range patterns.TenancyKinds {
			r := results[k*len(patterns.TenancyKinds)+i]
			tps[i] = r.TotalTPS
			tscores[i] = r.TScore
			p := r.Package
			resources = fmt.Sprintf("%gvC %gGB %gGB %.0fIOPS %gGbps",
				p.VCores, p.MemoryGB, p.StorageGB, p.IOPS, p.NetGbps)
			cost = report.Money(r.CostPerMin)
		}
		avg := (tscores[0] + tscores[1] + tscores[2] + tscores[3]) / 4
		tbl.AddRow(string(kind),
			report.F(tps[0]), report.F(tps[1]), report.F(tps[2]), report.F(tps[3]),
			resources, cost,
			report.F(tscores[0]), report.F(tscores[1]), report.F(tscores[2]), report.F(tscores[3]),
			report.F(avg))
	}
	return tbl.String(), results
}

// TableVIII regenerates the fail-over evaluation: F-Score and R-Score for
// RW and RO node failures per SUT.
func TableVIII(sc Scale) (string, []evaluator.FailoverResult) {
	var cfgs []evaluator.FailoverConfig
	for _, kind := range SUTs {
		for _, role := range []cluster.Role{cluster.RW, cluster.RO} {
			cfgs = append(cfgs, evaluator.FailoverConfig{
				Kind: kind, Role: role, Concurrency: sc.FailConc,
				Baseline: sc.FailBaseline, Timeout: sc.FailTimeout, Seed: sc.Seed,
			})
		}
	}
	results := runCells(len(cfgs), func(i int) evaluator.FailoverResult {
		return evaluator.RunFailover(cfgs[i])
	})
	tbl := report.NewTable("Table VIII — F-Score and R-Score",
		"System", "F(RW)", "F(RO)", "F(AVG)", "R(RW)", "R(RO)", "R(AVG)", "Total")
	for k, kind := range SUTs {
		rw, ro := results[2*k], results[2*k+1]
		fAvg := (rw.F + ro.F) / 2
		rAvg := (rw.R + ro.R) / 2
		total := rw.F + ro.F + rw.R + ro.R
		tbl.AddRow(string(kind),
			report.Dur(rw.F), report.Dur(ro.F), report.Dur(fAvg),
			report.Dur(rw.R), report.Dur(ro.R), report.Dur(rAvg),
			report.Dur(total))
	}
	return tbl.String(), results
}

// Figure7 regenerates CDB4's fail-over timeline: the phase trace of the
// promote-RO switch-over.
func Figure7(sc Scale) (string, evaluator.FailoverResult) {
	r := evaluator.RunFailover(evaluator.FailoverConfig{
		Kind: "cdb4", Role: cluster.RW, Concurrency: sc.FailConc,
		Baseline: sc.FailBaseline, Timeout: sc.FailTimeout, Seed: sc.Seed,
	})
	var b strings.Builder
	b.WriteString("Figure 7 — Timeline of CDB4's fail-over process\n\n")
	tbl := report.NewTable("", "t (since injection)", "Phase")
	var injected time.Duration
	for _, ev := range r.Timeline {
		if strings.HasSuffix(ev.Phase, "crash injected") {
			injected = ev.At
			break
		}
	}
	for _, ev := range r.Timeline {
		tbl.AddRow(report.Dur(ev.At-injected), ev.Phase)
	}
	b.WriteString(tbl.String())
	fmt.Fprintf(&b, "\nService recovery F = %s, throughput recovery R = %s\n",
		report.Dur(r.F), report.Dur(r.R))
	return b.String(), r
}

// LagTable regenerates the §III-F replication lag evaluation across the
// four IUD mixes.
func LagTable(sc Scale) (string, []evaluator.LagResult) {
	var cfgs []evaluator.LagConfig
	for _, iud := range evaluator.PaperIUDMixes {
		for _, kind := range SUTs {
			cfgs = append(cfgs, evaluator.LagConfig{
				Kind: kind, IUD: iud, Concurrency: sc.LagConc,
				Duration: sc.LagDuration, Seed: sc.Seed,
			})
		}
	}
	results := runCells(len(cfgs), func(i int) evaluator.LagResult {
		return evaluator.RunLag(cfgs[i])
	})
	var b strings.Builder
	b.WriteString("Replication lag time between RW and RO (§III-F)\n\n")
	i := 0
	for _, iud := range evaluator.PaperIUDMixes {
		tbl := report.NewTable(
			fmt.Sprintf("IUD = (%.0f%%, %.0f%%, %.0f%%)", iud[0], iud[1], iud[2]),
			"System", "InsertLag", "UpdateLag", "DeleteLag", "C-Score")
		for range SUTs {
			r := results[i]
			i++
			tbl.AddRow(string(r.Kind),
				report.Dur(r.InsertLag), report.Dur(r.UpdateLag),
				report.Dur(r.DeleteLag), report.Dur(r.CScore))
		}
		b.WriteString(tbl.String())
		b.WriteString("\n")
	}
	return b.String(), results
}

// TableIX regenerates the overall PERFECT comparison, including the
// actual-cost starred variants.
func TableIX(sc Scale) (string, []evaluator.OverallResult) {
	results := runCells(len(SUTs), func(i int) evaluator.OverallResult {
		return evaluator.RunOverall(evaluator.OverallConfig{
			Kind: SUTs[i], SlotLength: sc.SlotLength, Measure: sc.Measure,
			Tau: sc.Tau, Seed: sc.Seed,
			FailBaseline: sc.FailBaseline, FailTimeout: sc.FailTimeout, FailConc: sc.FailConc,
			LagDuration: sc.LagDuration,
			Warm:        warmCache,
		})
	})
	tbl := report.NewTable("Table IX — Overall performance (PERFECT framework)",
		"System", "P", "P*", "E1", "E1*", "R", "F", "E2", "C", "T", "T*", "O", "O*")
	for _, r := range results {
		kind := r.Kind
		s := r.Scores
		tbl.AddRow(string(kind),
			report.F(s.P), report.F(s.PStar),
			report.F(s.E1), report.F(s.E1Star),
			report.Dur(s.R), report.Dur(s.F),
			report.F(s.E2), report.Dur(s.C),
			report.F(s.T), report.F(s.TStar),
			fmt.Sprintf("%.2f", s.O()), fmt.Sprintf("%.2f", s.OStar()))
	}
	return tbl.String(), results
}
