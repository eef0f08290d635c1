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

// figure9Slots is the length of each Figure 9 run, in slots.
const figure9Slots = 12

// figure9Cell keys a Figure 9 run by its index: CloudyBench, SysBench, TPC-C.
type figure9Cell struct{ run int }

// figure9Cells returns Figure 9's three runs, in its order.
func (s *Session) figure9Cells() []evaluator.Figure9Result {
	var cb []int
	for _, pat := range patterns.ElasticPatterns() {
		cb = append(cb, pat.Concurrency(s.sc.Tau)...)
	}
	if len(cb) != figure9Slots {
		panic("experiments: pattern slots mismatch")
	}
	constant := func(threads int) []int { return slices.Repeat([]int{threads}, figure9Slots) }
	runs := []struct {
		name  string
		suite *core.Suite
		cons  []int
	}{
		{"cloudybench", nil, cb},
		{"sysbench", baselines.SysBench, constant(11)},
		{"tpcc", baselines.TPCC, constant(44)},
	}
	return sessionCells(s, []figure9Cell{{0}, {1}, {2}}, func(k figure9Cell) evaluator.Figure9Result {
		r := runs[k.run]
		return evaluator.RunFigure9(r.name, r.suite, r.cons, s.sc.SlotLength, s.sc.Seed)
	})
}

// Figure9 regenerates the benchmark comparison of §III-I: a 12-slot run on
// CDB3 for (a) CloudyBench's four elasticity patterns back to back,
// (b) SysBench at a constant 11 threads, and (c) TPC-C at a constant 44
// threads — those two thread counts being CloudyBench's valley and peak
// levels. The output is each run's allocated-vCPU timeline.
func Figure9(s *Session) (string, error) {
	sc, results := s.sc, s.figure9Cells()
	var b strings.Builder
	b.WriteString("Figure 9 — CPU allocation on CDB3: CloudyBench vs SysBench vs TPC-C\n")
	fmt.Fprintf(&b, "(%d slots of %s; one sample per slot)\n\n", figure9Slots, sc.SlotLength)
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
	return b.String(), nil
}
