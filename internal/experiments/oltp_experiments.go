package experiments

import (
	"fmt"
	"strings"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/report"
)

// figure5Cells returns Figure 5's cells: every SUT at every concurrency,
// for each mix at each SF (SF-, then mix-, then SUT-major).
func (s *Session) figure5Cells() []evaluator.OLTPResult {
	var cfgs []evaluator.OLTPConfig
	for _, sf := range s.sc.SFs {
		for _, mix := range Mixes {
			for _, kind := range SUTs {
				for _, con := range s.sc.Concurrency {
					cfgs = append(cfgs, oltpCell(s.sc, kind, sf, mix.Mix, con))
				}
			}
		}
	}
	return sessionCells(s, cfgs, evaluator.RunOLTP)
}

// Figure5 regenerates the transaction-processing comparison: TPS per SUT
// across scale factors, workload modes, and concurrency levels.
func Figure5(s *Session) (string, error) {
	sc, results := s.sc, s.figure5Cells()
	var b strings.Builder
	b.WriteString("Figure 5 — Transaction Processing Performance (TPS)\n\n")
	i := 0
	for _, sf := range sc.SFs {
		for _, mix := range Mixes {
			tbl := report.NewTable(
				fmt.Sprintf("SF%d, %s (%s)", sf, mix.Name, mix.Mix),
				append([]string{"System"}, concurrencyHeaders(sc.Concurrency)...)...)
			for _, kind := range SUTs {
				row := []string{string(kind)}
				for range sc.Concurrency {
					row = append(row, report.F(results[i].TPS))
					i++
				}
				tbl.AddRow(row...)
			}
			b.WriteString(tbl.String())
			b.WriteString("\n")
		}
	}
	return b.String(), nil
}

func concurrencyHeaders(cons []int) []string {
	out := make([]string, len(cons))
	for i, c := range cons {
		out[i] = fmt.Sprintf("con=%d", c)
	}
	return out
}

// oltpCell is the config of an OLTP cell at the scale's windows: Figure
// 5's, which Table V prices, and Table IX's P.
func oltpCell(sc Scale, kind cdb.Kind, sf int, mix core.Mix, con int) evaluator.OLTPConfig {
	return evaluator.OLTPConfig{
		Kind: kind, SF: sf, Mix: mix, Concurrency: con,
		Warmup: sc.Warmup, Measure: sc.Measure, Seed: sc.Seed,
	}
}

// tableVCells returns Table V's cells, Figure 5's SF1 cells at its highest
// concurrency: every mix on every SUT (SUT-major).
func (s *Session) tableVCells() []evaluator.OLTPResult {
	con := 150
	if len(s.sc.Concurrency) > 0 {
		con = s.sc.Concurrency[len(s.sc.Concurrency)-1]
	}
	var cfgs []evaluator.OLTPConfig
	for _, kind := range SUTs {
		for _, mix := range Mixes {
			cfgs = append(cfgs, oltpCell(s.sc, kind, 1, mix.Mix, con))
		}
	}
	return sessionCells(s, cfgs, evaluator.RunOLTP)
}

// TableV regenerates the P-Score table: per-SUT resource cost breakdown
// and productivity per workload mode.
func TableV(s *Session) (string, error) {
	results := s.tableVCells()
	tbl := report.NewTable("Table V — P-Score with detailed resource cost ($/min, 1 RW + 1 RO)",
		"System", "CPU", "Memory", "Storage", "IOPS", "Network", "Total",
		"P(RO)", "P(RW)", "P(WO)", "P(AVG)")
	for k, kind := range SUTs {
		var ps [3]float64
		var cost string
		var parts [5]string
		for i := range Mixes {
			r := results[k*len(Mixes)+i]
			ps[i] = r.PScore
			cost = report.Money(r.CostPerMin.Total())
			parts = [5]string{
				report.Money(r.CostPerMin.CPU), report.Money(r.CostPerMin.Memory),
				report.Money(r.CostPerMin.Storage), report.Money(r.CostPerMin.IOPS),
				report.Money(r.CostPerMin.Network),
			}
		}
		avg := (ps[0] + ps[1] + ps[2]) / 3
		tbl.AddRow(string(kind), parts[0], parts[1], parts[2], parts[3], parts[4], cost,
			report.F(ps[0]), report.F(ps[1]), report.F(ps[2]), report.F(avg))
	}
	return tbl.String(), nil
}

// figure8Buffers are Figure 8's buffer sizes, swept on RDS, CDB1 and CDB4.
var figure8Buffers = []int64{128 << 20, 1 << 30, 4 << 30, 10 << 30}

// figure8Cells returns Figure 8's cells, every buffer size on each swept
// SUT (SUT-major).
func (s *Session) figure8Cells() []evaluator.OLTPResult {
	var cfgs []evaluator.OLTPConfig
	for _, kind := range []cdb.Kind{cdb.RDS, cdb.CDB1, cdb.CDB4} {
		for _, buf := range figure8Buffers {
			cfgs = append(cfgs, evaluator.OLTPConfig{
				Kind: kind, SF: 10, Mix: core.MixReadWrite, Concurrency: 100,
				Warmup: s.sc.Warmup, Measure: s.sc.Measure, Seed: s.sc.Seed,
				BufferBytes: buf,
			})
		}
	}
	return sessionCells(s, cfgs, evaluator.RunOLTP)
}

// Figure8 regenerates the buffer-size sweep: TPS, cost, and P-Score for
// RDS, CDB1, and CDB4 as the buffer grows from 128 MB to 10 GB. The paper
// sweeps at SF1; our generator's hot working set at SF1 fits even the
// smallest buffer, so the sweep runs at SF10 where the buffer binds —
// the shape (TPS grows with buffer at constant cost) is the artifact.
func Figure8(s *Session) (string, error) {
	tbl := report.NewTable("Figure 8 — Varying the Buffer Size (RW, SF10)",
		"System", "Buffer", "TPS", "HitRatio", "Cost/min", "P-Score")
	for i, r := range s.figure8Cells() {
		tbl.AddRow(string(r.Kind), fmt.Sprintf("%dMB", figure8Buffers[i%len(figure8Buffers)]>>20),
			report.F(r.TPS), fmt.Sprintf("%.2f", r.HitRatio),
			report.Money(r.CostPerMin.Total()), report.F(r.PScore))
	}
	return tbl.String(), nil
}
