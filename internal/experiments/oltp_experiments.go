package experiments

import (
	"fmt"
	"strings"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/report"
)

// Figure5 regenerates the transaction-processing comparison: TPS per SUT
// across scale factors, workload modes, and concurrency levels. Cells fan
// out across cores; the tables render afterwards in declaration order.
func Figure5(s *Session) (string, []evaluator.OLTPResult) {
	sc := s.sc
	var cfgs []evaluator.OLTPConfig
	for _, sf := range sc.SFs {
		for _, mix := range Mixes {
			for _, kind := range SUTs {
				for _, con := range sc.Concurrency {
					cfgs = append(cfgs, oltpCell(sc, kind, sf, mix.Mix, con))
				}
			}
		}
	}
	results := sessionCells(s, cfgs, evaluator.RunOLTP)
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
	return b.String(), results
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
		Warmup: sc.Warmup, Measure: sc.Measure, Seed: sc.Seed, Warm: warmCache,
	}
}

// TableV regenerates the P-Score table: per-SUT resource cost breakdown
// and productivity per workload mode, from Figure 5's SF1 cells at its
// highest concurrency.
func TableV(s *Session) (string, []evaluator.OLTPResult) {
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
	results := sessionCells(s, cfgs, evaluator.RunOLTP)
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
	return tbl.String(), results
}

// Figure8 regenerates the buffer-size sweep: TPS, cost, and P-Score for
// RDS, CDB1, and CDB4 as the buffer grows from 128 MB to 10 GB. The paper
// sweeps at SF1; our generator's hot working set at SF1 fits even the
// smallest buffer, so the sweep runs at SF10 where the buffer binds —
// the shape (TPS grows with buffer at constant cost) is the artifact.
func Figure8(sc Scale) (string, []evaluator.OLTPResult) {
	buffers := []int64{128 << 20, 1 << 30, 4 << 30, 10 << 30}
	kinds := []cdb.Kind{cdb.RDS, cdb.CDB1, cdb.CDB4}
	con := 100
	var cfgs []evaluator.OLTPConfig
	for _, kind := range kinds {
		for _, buf := range buffers {
			cfgs = append(cfgs, evaluator.OLTPConfig{
				Kind: kind, SF: 10, Mix: core.MixReadWrite, Concurrency: con,
				Warmup: sc.Warmup, Measure: sc.Measure, Seed: sc.Seed,
				BufferBytes: buf,
				Warm:        warmCache,
			})
		}
	}
	results := runCells(len(cfgs), func(i int) evaluator.OLTPResult {
		return evaluator.RunOLTP(cfgs[i])
	})
	tbl := report.NewTable("Figure 8 — Varying the Buffer Size (RW, SF10)",
		"System", "Buffer", "TPS", "HitRatio", "Cost/min", "P-Score")
	for i, r := range results {
		tbl.AddRow(string(cfgs[i].Kind), fmt.Sprintf("%dMB", cfgs[i].BufferBytes>>20),
			report.F(r.TPS), fmt.Sprintf("%.2f", r.HitRatio),
			report.Money(r.CostPerMin.Total()), report.F(r.PScore))
	}
	return tbl.String(), results
}
