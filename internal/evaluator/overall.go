package evaluator

import (
	"cmp"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/cluster"
	"cloudybench/internal/core"
	"cloudybench/internal/metrics"
	"cloudybench/internal/patterns"
)

// OverallConfig sizes the composite PERFECT evaluation (Table IX). Zero
// fields take the defaults noted beside them, which give a fast
// configuration; Table IX passes its scale's windows, which reach the
// paper's one-minute slots at the paper scale.
type OverallConfig struct {
	Kind cdb.Kind
	SF   int   // default 1
	Seed int64 // default 42
	// SlotLength is the elasticity and multi-tenancy slot length.
	SlotLength  time.Duration // default 5s
	Measure     time.Duration // default 5s OLTP measure window
	Concurrency int           // default 110, the OLTP and E2 sub-runs
	Tau         int           // default 110, elasticity saturation concurrency
	// Fail-over sub-run windows (defaults: 6s baseline, 60s timeout,
	// concurrency 60).
	FailBaseline time.Duration
	FailTimeout  time.Duration
	FailConc     int
	// LagDuration sizes the lag sub-run (default 4s).
	LagDuration time.Duration
	// Warm forwards to the OLTP and E2 sub-runs' warm-up memoization.
	Warm *WarmCache
}

func (c OverallConfig) withDefaults() OverallConfig {
	c.SF, c.Seed = max(c.SF, 1), cmp.Or(c.Seed, 42)
	c.SlotLength = orDefault(c.SlotLength, 5*time.Second)
	c.Measure = orDefault(c.Measure, 5*time.Second)
	c.Concurrency = orDefault(c.Concurrency, 110)
	c.Tau = orDefault(c.Tau, 110)
	c.FailBaseline = orDefault(c.FailBaseline, 6*time.Second)
	c.FailTimeout = orDefault(c.FailTimeout, 60*time.Second)
	c.FailConc = orDefault(c.FailConc, 60)
	c.LagDuration = orDefault(c.LagDuration, 4*time.Second)
	return c
}

// OverallResult is one SUT's Table IX row plus the raw components.
type OverallResult struct {
	Kind   cdb.Kind
	Scores metrics.Scores

	OLTP       OLTPResult
	Elasticity []ElasticityResult
	Tenancy    []TenancyResult
	FailRW     FailoverResult
	FailRO     FailoverResult
	Lag        LagResult
	E2         E2Result
}

// RunOverall composes every evaluator into the unified PERFECT scores.
func RunOverall(cfg OverallConfig) OverallResult {
	cfg = cfg.withDefaults()
	res := OverallResult{Kind: cfg.Kind}

	// P-Score / P*-Score: read-write throughput against resource cost and
	// against the vendor's price, both off the one measured cell.
	res.OLTP = RunOLTP(cfg.oltp())
	res.Scores.System = string(cfg.Kind)
	res.Scores.SF = float64(cfg.SF)
	res.Scores.P = res.OLTP.PScore
	res.Scores.PStar = res.OLTP.PStarScore

	// E1 / E1*: average across the four elasticity patterns.
	var e1Sum, e1StarSum float64
	for _, pat := range patterns.ElasticPatterns() {
		er := RunElasticity(ElasticityConfig{
			Kind: cfg.Kind, Pattern: pat, Mix: core.MixReadWrite,
			Tau: cfg.Tau, SlotLength: cfg.SlotLength, SF: cfg.SF, Seed: cfg.Seed,
		})
		res.Elasticity = append(res.Elasticity, er)
		e1Sum += er.E1Score
		e1StarSum += er.E1StarScore
	}
	n := float64(len(res.Elasticity))
	res.Scores.E1 = e1Sum / n
	res.Scores.E1Star = e1StarSum / n

	// T / T*: average across the four multi-tenancy patterns.
	var tSum, tStarSum float64
	for _, kind := range patterns.TenancyKinds {
		tr := RunTenancy(TenancyConfig{
			Kind: cfg.Kind, Pattern: patterns.PaperTenancy(kind),
			SlotLength: cfg.SlotLength, SF: cfg.SF, Seed: cfg.Seed,
		})
		res.Tenancy = append(res.Tenancy, tr)
		tSum += tr.TScore
		tStarSum += tr.TScoreStar
	}
	res.Scores.T = tSum / float64(len(res.Tenancy))
	res.Scores.TStar = tStarSum / float64(len(res.Tenancy))

	// F / R: average of RW and RO failure runs.
	res.FailRW = RunFailover(FailoverConfig{
		Kind: cfg.Kind, Role: cluster.RW, SF: cfg.SF, Seed: cfg.Seed,
		Baseline: cfg.FailBaseline, Timeout: cfg.FailTimeout, Concurrency: cfg.FailConc,
	})
	res.FailRO = RunFailover(FailoverConfig{
		Kind: cfg.Kind, Role: cluster.RO, SF: cfg.SF, Seed: cfg.Seed,
		Baseline: cfg.FailBaseline, Timeout: cfg.FailTimeout, Concurrency: cfg.FailConc,
	})
	res.Scores.F = metrics.FScore([]time.Duration{res.FailRW.F, res.FailRO.F})
	res.Scores.R = metrics.RScore([]time.Duration{res.FailRW.R, res.FailRO.R})

	// C: replication lag with the mixed IUD ratio.
	res.Lag = RunLag(LagConfig{
		Kind: cfg.Kind, IUD: PaperIUDMixes[0], SF: cfg.SF, Seed: cfg.Seed,
		Duration: cfg.LagDuration,
	})
	res.Scores.C = res.Lag.CScore

	// E2: scale-out elasticity.
	res.E2 = RunE2(E2Config{
		Kind: cfg.Kind, SF: cfg.SF, Mix: core.MixReadOnly,
		Concurrency: cfg.Concurrency, Measure: cfg.Measure, Seed: cfg.Seed,
		Warm: cfg.Warm,
	})
	res.Scores.E2 = res.E2.E2Score
	return res
}

// oltp is the read-write cell the P and P* scores read.
func (c OverallConfig) oltp() OLTPConfig {
	return OLTPConfig{
		Kind: c.Kind, SF: c.SF, Mix: core.MixReadWrite,
		Concurrency: c.Concurrency, Measure: c.Measure, Seed: c.Seed,
		Warm: c.Warm,
	}
}
