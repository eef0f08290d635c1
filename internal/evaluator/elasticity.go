package evaluator

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/meter"
	"cloudybench/internal/metrics"
	"cloudybench/internal/patterns"
	"cloudybench/internal/sim"
)

// ElasticityConfig parameterizes one elasticity run (paper §III-C,
// Figure 6 and Table VI): drive one pattern's concurrency sequence and
// account throughput, cost (execution plus scaling), and scaling behaviour.
type ElasticityConfig struct {
	Kind    cdb.Kind
	Pattern patterns.Elastic
	Mix     core.Mix
	// Tau is the saturation concurrency the proportions scale to
	// (default 110, the paper's running example).
	Tau int
	// SlotLength is one pattern slot (the paper uses one minute; tests use
	// shorter slots — the shapes are slot-length-invariant).
	SlotLength time.Duration
	// CostSlots is the costing window in slots measured from pattern start
	// (the paper uses a ten-minute range, i.e. 10 one-minute slots, so
	// trailing scale-down cost is charged). Default 10.
	CostSlots int
	// Serverless overrides the profile's default autoscaling.
	Serverless *bool
	Seed       int64
}

func (c ElasticityConfig) withDefaults() ElasticityConfig {
	c.Tau = orDefault(c.Tau, 110)
	c.SlotLength = orDefault(c.SlotLength, time.Minute)
	c.CostSlots = orDefault(c.CostSlots, 10)
	return c
}

// Transition is one concurrency change and the SUT's scaling response
// (Table VI rows).
type Transition struct {
	At          time.Duration
	FromCon     int
	ToCon       int
	ScalingTime time.Duration
	ScalingCost float64 // CPU+memory RUC dollars spent while scaling
}

// ElasticityResult is one pattern's outcome.
type ElasticityResult struct {
	Kind    cdb.Kind
	Pattern string
	Mix     core.Mix

	AvgTPS     float64
	TotalCost  float64 // RUC over the costing window (execution + scaling)
	ActualCost float64 // vendor-priced cost over the same window
	E1Score    float64
	// E1StarScore is E1Score against the vendor-priced cost of the costing
	// window (Table IX's E1*); zero when the window cost nothing.
	E1StarScore float64
	Transitions []Transition
	// Cores samples the allocated vCores once per slot-length/2 over the
	// costing window (Figure 9-style series).
	Cores []float64
}

// RunElasticity executes one elasticity pattern against one SUT using a
// single serving node (the elastic unit the autoscaler acts on).
func RunElasticity(cfg ElasticityConfig) ElasticityResult {
	cfg = cfg.withDefaults()
	cons := cfg.Pattern.Concurrency(cfg.Tau)
	slot := cfg.SlotLength
	patternEnd := time.Duration(len(cons)) * slot
	costEnd := max(time.Duration(cfg.CostSlots)*slot, patternEnd)
	rc := runCell(spec{
		name: "elastic", prof: cdb.ProfileFor(cfg.Kind),
		opts: cdb.Options{
			Seed: cfg.Seed, PreWarm: true,
			Serverless:   cfg.Serverless,
			CadenceScale: float64(time.Minute) / float64(slot),
		},
		mix: cfg.Mix,
		body: func(p *sim.Proc, rc *run) {
			r := rc.runner("elastic", rc.col)
			for _, c := range cons {
				r.SetConcurrency(c)
				p.Sleep(slot)
			}
			r.SetConcurrency(0)
			r.Stop()
			r.Wait(p)
			// Idle out the rest of the costing window so trailing scale-down
			// (or the lack of it) is charged, as in the paper's 10-minute
			// costing range.
			if rest := costEnd - p.Elapsed(); rest > 0 {
				p.Sleep(rest)
			}
		},
	})

	d, col := rc.d, rc.col
	breakdown := d.RUCBreakdown(0, costEnd)
	elasticPerMin := (breakdown.CPU + breakdown.Memory + breakdown.IOPS) / costEnd.Minutes()
	res := ElasticityResult{
		Kind:       cfg.Kind,
		Pattern:    cfg.Pattern.Name,
		Mix:        cfg.Mix,
		AvgTPS:     col.TPS(0, patternEnd),
		TotalCost:  breakdown.Total(),
		ActualCost: d.ActualCost(0, costEnd),
		E1Score:    metrics.E1Score(col.TPS(0, patternEnd), elasticPerMin),
		Cores:      d.RW().Cores.Sample(0, costEnd, slot/2),
	}
	if res.ActualCost > 0 {
		res.E1StarScore = metrics.E1Score(res.AvgTPS, res.ActualCost/costEnd.Minutes())
	}
	res.Transitions = transitions(cons, slot, costEnd, d.RW().Cores, d)
	return res
}

// transitions derives Table VI's per-transition scaling time and cost from
// the allocation series: a transition's scaling completes at the last
// allocation change before the next transition (the final transition's
// settle window extends to the end of the costing window, capturing
// CDB1-style gradual descents).
func transitions(cons []int, slot, costEnd time.Duration, cores *meter.Series, d *cdb.Deployment) []Transition {
	// Build the workload-change instants: entry, slot boundaries, exit.
	type change struct {
		at       time.Duration
		from, to int
	}
	var changes []change
	prev := 0
	for i, c := range cons {
		if c != prev {
			changes = append(changes, change{at: time.Duration(i) * slot, from: prev, to: c})
		}
		prev = c
	}
	if prev != 0 {
		changes = append(changes, change{at: time.Duration(len(cons)) * slot, from: prev, to: 0})
	}
	out := make([]Transition, 0, len(changes))
	for i, ch := range changes {
		windowEnd := costEnd
		if i+1 < len(changes) {
			windowEnd = changes[i+1].at
		}
		settle := lastStepIn(cores, ch.at, windowEnd)
		tr := Transition{At: ch.at, FromCon: ch.from, ToCon: ch.to}
		if settle > ch.at {
			tr.ScalingTime = settle - ch.at
			b := d.RUCBreakdown(ch.at, settle)
			tr.ScalingCost = b.CPU + b.Memory
		}
		out = append(out, tr)
	}
	return out
}

// lastStepIn returns the time of the last series step in (from, to], or
// from when the series did not change.
func lastStepIn(s *meter.Series, from, to time.Duration) time.Duration {
	last := from
	for _, st := range s.Steps() {
		if st.At > from && st.At <= to {
			last = st.At
		}
	}
	return last
}
