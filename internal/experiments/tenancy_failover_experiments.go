package experiments

import (
	"fmt"
	"strings"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/cluster"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/metrics"
	"cloudybench/internal/patterns"
	"cloudybench/internal/report"
)

// tenancyCell keys a Table VII cell. Every other field of its config comes
// from the session's scale.
type tenancyCell struct {
	kind    cdb.Kind
	pattern int // index into patterns.TenancyKinds
}

// tableVIICells returns Table VII's cells, every tenancy pattern on every
// SUT (SUT-major).
func (s *Session) tableVIICells() []evaluator.TenancyResult {
	var keys []tenancyCell
	for _, kind := range SUTs {
		for pk := range patterns.TenancyKinds {
			keys = append(keys, tenancyCell{kind, pk})
		}
	}
	return sessionCells(s, keys, func(k tenancyCell) evaluator.TenancyResult {
		return evaluator.RunTenancy(evaluator.TenancyConfig{
			Kind: k.kind, Pattern: patterns.PaperTenancy(patterns.TenancyKinds[k.pattern]),
			SlotLength: s.sc.SlotLength, Seed: s.sc.Seed,
		})
	})
}

// TableVII regenerates the multi-tenancy evaluation: per-pattern TPS,
// total provisioned resources, cost, and T-Score per SUT.
func TableVII(s *Session) (string, error) {
	results := s.tableVIICells()
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
	return tbl.String(), nil
}

// failoverCell is the config of kind's Table VIII cell for a role's
// failure.
func failoverCell(sc Scale, kind cdb.Kind, role cluster.Role) evaluator.FailoverConfig {
	return evaluator.FailoverConfig{
		Kind: kind, Role: role, Concurrency: sc.FailConc,
		Baseline: sc.FailBaseline, Timeout: sc.FailTimeout, Seed: sc.Seed,
	}
}

// tableVIIICells returns Table VIII's cells, an RW and then an RO node
// failure on every SUT (SUT-major).
func (s *Session) tableVIIICells() []evaluator.FailoverResult {
	var cfgs []evaluator.FailoverConfig
	for _, kind := range SUTs {
		for _, role := range []cluster.Role{cluster.RW, cluster.RO} {
			cfgs = append(cfgs, failoverCell(s.sc, kind, role))
		}
	}
	return sessionCells(s, cfgs, evaluator.RunFailover)
}

// TableVIII regenerates the fail-over evaluation: F-Score and R-Score for
// RW and RO node failures per SUT.
func TableVIII(s *Session) (string, error) {
	results := s.tableVIIICells()
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
	return tbl.String(), nil
}

// Figure7 regenerates CDB4's fail-over timeline: the phase trace of the
// promote-RO switch-over, which is Table VIII's CDB4 RW cell.
func Figure7(s *Session) (string, error) {
	r := sessionCells(s, []evaluator.FailoverConfig{failoverCell(s.sc, cdb.CDB4, cluster.RW)}, evaluator.RunFailover)[0]
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
	return b.String(), nil
}

// lagCell is the config of kind's §III-F cell for an IUD mix.
func lagCell(sc Scale, kind cdb.Kind, iud [3]float64) evaluator.LagConfig {
	return evaluator.LagConfig{
		Kind: kind, IUD: iud, Concurrency: sc.LagConc, Duration: sc.LagDuration, Seed: sc.Seed,
	}
}

// lagCells returns the §III-F cells, every SUT under each of the four IUD
// mixes (mix-major).
func (s *Session) lagCells() []evaluator.LagResult {
	var cfgs []evaluator.LagConfig
	for _, iud := range evaluator.PaperIUDMixes {
		for _, kind := range SUTs {
			cfgs = append(cfgs, lagCell(s.sc, kind, iud))
		}
	}
	return sessionCells(s, cfgs, evaluator.RunLag)
}

// LagTable regenerates the §III-F replication lag evaluation across the
// four IUD mixes.
func LagTable(s *Session) (string, error) {
	results := s.lagCells()
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
	return b.String(), nil
}

// tableIXConcurrency is the client count of Table IX's OLTP cells: the
// read-write cell P and P* read and the read-only cells E2 reads.
const tableIXConcurrency = 110

// tableIXCells are Table IX's P, C and E2 cells for one SUT.
type tableIXCells struct {
	oltp evaluator.OLTPResult // read-write: P and P*
	lag  evaluator.LagResult  // §III-F's (60,30,10) IUD mix: C
	e2   evaluator.E2Result   // read-only scale-out: E2
}

// tableIXScores returns Table IX's rows, one per SUT. Its P and E2 cells
// are its own; C is the §III-F table's (60,30,10) row, and E1, T, F and R
// compose the Figure 6, Table VII and Table VIII cells, all read from the
// session.
func (s *Session) tableIXScores() []metrics.Scores {
	sc := s.sc
	p := sessionCells(s, perSUT(func(kind cdb.Kind) evaluator.OLTPConfig {
		return oltpCell(sc, kind, 1, core.MixReadWrite, tableIXConcurrency)
	}), evaluator.RunOLTP)
	c := sessionCells(s, perSUT(func(kind cdb.Kind) evaluator.LagConfig {
		return lagCell(sc, kind, evaluator.PaperIUDMixes[0])
	}), evaluator.RunLag)
	e := sessionCells(s, perSUT(func(kind cdb.Kind) evaluator.E2Config {
		return evaluator.E2Config{Kind: kind, Concurrency: tableIXConcurrency, Measure: sc.Measure, Seed: sc.Seed}
	}), evaluator.RunE2)
	elastic, tenancy, failover := s.elasticity(SUTs), s.tableVIICells(), s.tableVIIICells()
	scores := make([]metrics.Scores, len(SUTs))
	for i, kind := range SUTs {
		scores[i] = perfectScores(kind, tableIXCells{p[i], c[i], e[i]}, elastic, tenancy, failover)
	}
	return scores
}

// TableIX regenerates the overall PERFECT comparison, including the
// actual-cost starred variants.
func TableIX(s *Session) (string, error) {
	tbl := report.NewTable("Table IX — Overall performance (PERFECT framework)",
		"System", "P", "P*", "E1", "E1*", "R", "F", "E2", "C", "T", "T*", "O", "O*")
	for _, row := range s.tableIXScores() {
		tbl.AddRow(row.System,
			report.F(row.P), report.F(row.PStar),
			report.F(row.E1), report.F(row.E1Star),
			report.Dur(row.R), report.Dur(row.F),
			report.F(row.E2), report.Dur(row.C),
			report.F(row.T), report.F(row.TStar),
			fmt.Sprintf("%.2f", row.O()), fmt.Sprintf("%.2f", row.OStar()))
	}
	return tbl.String(), nil
}

// perfectScores composes kind's Table IX row: P, P*, C and E2 from its own
// cells; E1 and E1* the means over its Figure 6 cells, T and T* over its
// Table VII cells; F and R the FScore and RScore of its Table VIII RW and
// RO cells. Other SUTs' cells are skipped.
func perfectScores(kind cdb.Kind, own tableIXCells, elastic []evaluator.ElasticityResult,
	tenancy []evaluator.TenancyResult, failover []evaluator.FailoverResult) metrics.Scores {
	s := metrics.Scores{
		System: string(kind),
		P:      own.oltp.PScore, PStar: own.oltp.PStarScore,
		C: own.lag.CScore, E2: own.e2.E2Score,
	}
	var n float64
	for _, r := range elastic {
		if r.Kind == kind {
			s.E1 += r.E1Score
			s.E1Star += r.E1StarScore
			n++
		}
	}
	s.E1, s.E1Star = s.E1/n, s.E1Star/n
	n = 0
	for _, r := range tenancy {
		if r.Kind == kind {
			s.T += r.TScore
			s.TStar += r.TScoreStar
			n++
		}
	}
	s.T, s.TStar = s.T/n, s.TStar/n
	var f, rec []time.Duration
	for _, r := range failover {
		if r.Kind == kind {
			f, rec = append(f, r.F), append(rec, r.R)
		}
	}
	s.F, s.R = metrics.FScore(f), metrics.RScore(rec)
	return s
}
