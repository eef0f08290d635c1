package experiments

import (
	"fmt"
	"slices"
	"strings"

	"cloudybench/internal/baselines"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/patterns"
	"cloudybench/internal/report"
)

// Figure9 regenerates the benchmark comparison of §III-I: a 12-slot run on
// CDB3 for (a) CloudyBench's four elasticity patterns back to back,
// (b) SysBench at a constant 11 threads, and (c) TPC-C at a constant 44
// threads — those two thread counts being CloudyBench's valley and peak
// levels. The output is each run's allocated-vCPU timeline.
func Figure9(sc Scale) (string, []evaluator.Figure9Result) {
	const slots = 12
	var cb []int
	for _, pat := range patterns.ElasticPatterns() {
		cb = append(cb, pat.Concurrency(sc.Tau)...)
	}
	if len(cb) != slots {
		panic("experiments: pattern slots mismatch")
	}
	constant := func(threads int) []int { return slices.Repeat([]int{threads}, slots) }
	runs := []struct {
		name  string
		suite *core.Suite
		cons  []int
	}{
		{"cloudybench", nil, cb},
		{"sysbench", baselines.SysBench, constant(11)},
		{"tpcc", baselines.TPCC, constant(44)},
	}
	results := runCells(len(runs), func(i int) evaluator.Figure9Result {
		return evaluator.RunFigure9(runs[i].name, runs[i].suite, runs[i].cons, sc.SlotLength, sc.Seed)
	})
	var b strings.Builder
	b.WriteString("Figure 9 — CPU allocation on CDB3: CloudyBench vs SysBench vs TPC-C\n")
	fmt.Fprintf(&b, "(%d slots of %s; one sample per slot)\n\n", slots, sc.SlotLength)
	for _, r := range results {
		b.WriteString(report.Series(r.Workload, r.Cores, 4))
		b.WriteString("\n")
	}
	b.WriteString("\n")
	tbl := report.NewTable("", "Workload", "MinCores", "MaxCores", "ScalingRange", "MaxSlotDrop", "Commits")
	for _, r := range results {
		tbl.AddRow(r.Workload,
			fmt.Sprintf("%.2f", r.Min), fmt.Sprintf("%.2f", r.Max),
			fmt.Sprintf("%.2f", r.Max-r.Min), fmt.Sprintf("%.2f", r.MaxDrop),
			fmt.Sprintf("%d", r.Commits))
	}
	b.WriteString(tbl.String())
	return b.String(), results
}
