package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"cloudybench/internal/baselines"
	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/patterns"
	"cloudybench/internal/report"
	"cloudybench/internal/sim"
)

// Figure9Result holds one workload's CPU-allocation timeline on CDB3.
type Figure9Result struct {
	Workload string
	// Cores is the allocated vCores sampled once per slot.
	Cores []float64
	Min   float64
	Max   float64
	// MaxDrop is the largest slot-to-slot decrease — the paper highlights
	// CloudyBench's 2.25-vCore drop versus the baselines' 1 vCore.
	MaxDrop float64
	Commits int64
}

// fig9Prelude is the settling period before sampling begins, letting each
// workload reach its steady allocation (the paper measures services that
// were already running, not cold starts).
const fig9Prelude = 3

// Figure9 regenerates the benchmark comparison of §III-I: a 12-slot run on
// CDB3 for (a) CloudyBench's four elasticity patterns back to back,
// (b) SysBench at a constant 11 threads, and (c) TPC-C at a constant 44
// threads — those two thread counts being CloudyBench's valley and peak
// levels. The output is each run's allocated-vCPU timeline.
func Figure9(sc Scale) (string, []Figure9Result) {
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
	results := runCells(len(runs), func(i int) Figure9Result {
		return runFig9(sc, runs[i].name, runs[i].suite, runs[i].cons)
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

// runFig9 drives one workload on a serverless CDB3 deployment at one
// concurrency per slot, settling at the first slot's level first. A nil
// suite runs CloudyBench's mix on its prewarmed dataset; a baseline suite
// runs on its own tables instead.
func runFig9(sc Scale, name string, suite *core.Suite, cons []int) Figure9Result {
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	opts := cdb.Options{
		Replicas: -1, Seed: sc.Seed, PreWarm: suite == nil,
		CadenceScale: float64(time.Minute) / float64(sc.SlotLength),
	}
	cfg := core.Config{Name: "cb", Seed: sc.Seed, Mix: core.MixReadWrite, Collector: core.NewCollector()}
	if suite != nil {
		opts.NoDataset = true
		opts.ExtraSchema = func(db *engine.DB) error { return suite.Tables(db, 1, sc.Seed) }
		cfg.Name, cfg.Ops = suite.Name, suite.Ops(1)
	}
	d := cdb.MustDeploy(s, cdb.ProfileFor(cdb.CDB3), opts)
	cfg.Write, cfg.Read = d.RW, d.ReadNode
	r := core.NewRunner(s, cfg)
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(cons[0])
		p.Sleep(time.Duration(fig9Prelude) * sc.SlotLength)
		for _, c := range cons {
			r.SetConcurrency(c)
			p.Sleep(sc.SlotLength)
		}
		r.Stop()
		r.Wait(p)
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		panic("experiments: figure 9 " + name + ": " + err.Error())
	}
	return fig9Result(name, d.RW(), cfg.Collector.Commits(), sc, len(cons))
}

func fig9Result(name string, n *node.Node, commits int64, sc Scale, slots int) Figure9Result {
	from := time.Duration(fig9Prelude) * sc.SlotLength
	to := from + time.Duration(slots)*sc.SlotLength
	samples := n.Cores.Sample(from, to, sc.SlotLength)
	res := Figure9Result{Workload: name, Cores: samples, Commits: commits}
	if len(samples) == 0 {
		return res
	}
	res.Min, res.Max = samples[0], samples[0]
	for i, v := range samples {
		if v < res.Min {
			res.Min = v
		}
		if v > res.Max {
			res.Max = v
		}
		if i > 0 {
			if drop := samples[i-1] - v; drop > res.MaxDrop {
				res.MaxDrop = drop
			}
		}
	}
	return res
}
