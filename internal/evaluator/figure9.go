package evaluator

import (
	"slices"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
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

// RunFigure9 drives one workload on a serverless CDB3 deployment at cons[i]
// clients in slot i, after fig9Prelude slots settling at cons[0], and
// samples the RW's allocation once per slot. A nil suite runs CloudyBench's
// mix on its prewarmed dataset (runner "cb"); a baseline suite runs on its
// own tables under its own name.
func RunFigure9(workload string, suite *core.Suite, cons []int, slot time.Duration, seed int64) Figure9Result {
	sp := spec{
		name: "cb", prof: cdb.ProfileFor(cdb.CDB3), mix: core.MixReadWrite, suite: suite,
		opts: cdb.Options{
			Seed: seed, PreWarm: suite == nil, NoDataset: suite != nil,
			CadenceScale: float64(time.Minute) / float64(slot),
		},
	}
	if suite != nil {
		sp.name = suite.Name
	}
	sp.body = func(p *sim.Proc, rc *run) {
		r := rc.runner(sp.name, rc.col)
		r.SetConcurrency(cons[0])
		p.Sleep(time.Duration(fig9Prelude) * slot)
		for _, c := range cons {
			r.SetConcurrency(c)
			p.Sleep(slot)
		}
		r.Stop()
		r.Wait(p)
	}
	rc := runCell(sp)

	from := time.Duration(fig9Prelude) * slot
	samples := rc.d.RW().Cores.Sample(from, from+time.Duration(len(cons))*slot, slot)
	res := Figure9Result{Workload: workload, Cores: samples, Commits: rc.col.Commits()}
	if len(samples) == 0 {
		return res
	}
	res.Min, res.Max = slices.Min(samples), slices.Max(samples)
	for i := 1; i < len(samples); i++ {
		res.MaxDrop = max(res.MaxDrop, samples[i-1]-samples[i])
	}
	return res
}
