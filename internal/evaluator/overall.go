package evaluator

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/cluster"
	"cloudybench/internal/core"
	"cloudybench/internal/metrics"
	"cloudybench/internal/patterns"
	"cloudybench/internal/sim"
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
	if c.SF < 1 {
		c.SF = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.SlotLength <= 0 {
		c.SlotLength = 5 * time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 5 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 110
	}
	if c.Tau <= 0 {
		c.Tau = 110
	}
	if c.FailBaseline <= 0 {
		c.FailBaseline = 6 * time.Second
	}
	if c.FailTimeout <= 0 {
		c.FailTimeout = 60 * time.Second
	}
	if c.FailConc <= 0 {
		c.FailConc = 60
	}
	if c.LagDuration <= 0 {
		c.LagDuration = 4 * time.Second
	}
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

	// P-Score / P*-Score: read-write throughput against resource cost.
	res.OLTP = RunOLTP(OLTPConfig{
		Kind: cfg.Kind, SF: cfg.SF, Mix: core.MixReadWrite,
		Concurrency: cfg.Concurrency, Measure: cfg.Measure, Seed: cfg.Seed,
		Warm: cfg.Warm,
	})
	res.Scores.System = string(cfg.Kind)
	res.Scores.SF = float64(cfg.SF)
	res.Scores.P = res.OLTP.PScore
	res.Scores.PStar = pStarFromOLTP(cfg, res.OLTP)

	// E1 / E1*: average across the four elasticity patterns.
	var e1Sum, e1StarSum float64
	for _, pat := range patterns.ElasticPatterns() {
		er := RunElasticity(ElasticityConfig{
			Kind: cfg.Kind, Pattern: pat, Mix: core.MixReadWrite,
			Tau: cfg.Tau, SlotLength: cfg.SlotLength, SF: cfg.SF, Seed: cfg.Seed,
		})
		res.Elasticity = append(res.Elasticity, er)
		e1Sum += er.E1Score
		if er.ActualCost > 0 {
			costWindow := time.Duration(10) * cfg.SlotLength
			e1StarSum += metrics.E1Score(er.AvgTPS, er.ActualCost/costWindow.Minutes())
		}
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

// pStarFromOLTP recomputes productivity against the vendor's actual price
// per minute (with minimum billing applied to the measured window).
func pStarFromOLTP(cfg OverallConfig, r OLTPResult) float64 {
	s := sim.New(simEpoch)
	d := cdb.MustDeploy(s, cdb.ProfileFor(cfg.Kind), cdb.Options{
		SF: cfg.SF, Seed: cfg.Seed, Replicas: 1, Serverless: cdb.Bool(false),
	})
	s.Go("idle", func(p *sim.Proc) {
		p.Sleep(cfg.Measure)
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		panic("evaluator: pstar run: " + err.Error())
	}
	actualPerMin := d.ActualCost(0, cfg.Measure) / cfg.Measure.Minutes()
	return metrics.PScore(r.TPS, actualPerMin)
}
