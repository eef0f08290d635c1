package evaluator

import (
	"cmp"
	"fmt"
	"math"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/metrics"
	"cloudybench/internal/node"
	"cloudybench/internal/patterns"
	"cloudybench/internal/pricing"
	"cloudybench/internal/sim"
)

// TenancyConfig parameterizes one multi-tenancy run (paper §III-D,
// Table VII): deploy the SUT's tenancy model for the pattern's tenants and
// drive each tenant's per-slot concurrency.
type TenancyConfig struct {
	Kind    cdb.Kind
	Pattern patterns.Tenancy
	// SlotLength is one pattern slot (paper: one minute).
	SlotLength time.Duration
	Seed       int64
}

func (c TenancyConfig) withDefaults() TenancyConfig {
	c.SlotLength = orDefault(c.SlotLength, time.Minute)
	c.Seed = cmp.Or(c.Seed, 42)
	return c
}

// TenancyResult is one pattern's outcome for one SUT.
type TenancyResult struct {
	Kind    cdb.Kind
	Pattern string

	// TenantTPS[i] is tenant i's committed transactions over the full run
	// duration.
	TenantTPS  []float64
	GeoMeanTPS float64
	TotalTPS   float64
	Package    pricing.Package
	CostPerMin float64
	TScore     float64
	TScoreStar float64
}

// RunTenancy executes one multi-tenancy pattern against one SUT.
func RunTenancy(cfg TenancyConfig) TenancyResult {
	cfg = cfg.withDefaults()
	nTenants := cfg.Pattern.Tenants()
	collectors := make([]*core.Collector, nTenants)
	slots := cfg.Pattern.Slots()
	total := time.Duration(slots) * cfg.SlotLength
	opts := cdb.Options{Seed: cfg.Seed, PreWarm: true}
	ts := runTenants("tenancy", cdb.ProfileFor(cfg.Kind), nTenants, opts, func(p *sim.Proc, ts *cdb.TenantSet) {
		runners := make([]*core.Runner, nTenants)
		for i := range runners {
			collectors[i] = core.NewCollector()
			tn := ts.Tenants[i].Node
			runners[i] = core.NewRunner(ts.S, core.Config{
				Name: fmt.Sprintf("tenant%d", i), Seed: cfg.Seed + int64(i), Mix: core.MixReadWrite,
				Write:     func() *node.Node { return tn },
				Read:      func() *node.Node { return tn },
				Collector: collectors[i],
			})
		}
		for slot := 0; slot < slots; slot++ {
			for t, r := range runners {
				r.SetConcurrency(cfg.Pattern.PerTenant[t][slot])
			}
			p.Sleep(cfg.SlotLength)
		}
		for _, r := range runners {
			r.Stop()
		}
		for _, r := range runners {
			r.Wait(p)
		}
	})

	res := TenancyResult{
		Kind:       cfg.Kind,
		Pattern:    cfg.Pattern.Name,
		Package:    ts.Package(),
		CostPerMin: ts.CostPerMinute(),
	}
	logOK := true
	for _, col := range collectors {
		tps := col.TPS(0, total)
		res.TenantTPS = append(res.TenantTPS, tps)
		res.TotalTPS += tps
		if tps <= 0 {
			logOK = false
		}
	}
	if logOK {
		res.GeoMeanTPS = geoMean(res.TenantTPS)
	}
	res.TScore = metrics.TScore(res.TenantTPS, res.CostPerMin)
	actualPerMin := ts.ActualCost(total) / total.Minutes()
	res.TScoreStar = metrics.TScore(res.TenantTPS, actualPerMin)
	return res
}

func geoMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vals)))
}
