// Package evaluator contains CloudyBench's experiment drivers: the OLTP,
// elasticity, multi-tenancy, fail-over, and lag-time evaluators of paper
// Figure 1, plus Table IX's scale-out E2 cell. Each Run function declares
// its cells as specs over one harness (harness.go), which builds and runs
// every simulation, and returns a result struct that the report layer
// renders into the paper's tables and figures.
package evaluator

import (
	"cmp"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/metrics"
	"cloudybench/internal/obs"
	"cloudybench/internal/pricing"
)

// OLTPConfig parameterizes one throughput cell of Figure 5 / Table V.
type OLTPConfig struct {
	Kind        cdb.Kind
	SF          int
	Mix         core.Mix
	Concurrency int
	// Distribution is "uniform" (default) or "latest".
	Distribution string
	// Replicas defaults to 1 (the paper deploys 1 RW + 1 RO); pass
	// NoReplicas for a single-node deployment.
	Replicas int
	// Warmup runs before measurement begins; Measure is the measured
	// window. Defaults: 2s / 8s.
	Warmup  time.Duration
	Measure time.Duration
	// BufferBytes overrides the profile buffer (Figure 8).
	BufferBytes int64
	Seed        int64
	// Tracer, if non-nil, records per-transaction stage traces during the
	// run (both warmup and measure windows). Nil runs untraced at zero cost.
	Tracer *obs.Tracer
	// Warm, if non-nil, memoizes the warm-up phase across cells sharing a
	// WarmKey: later cells fork their measurement phase from the first's
	// snapshot. Results are byte-identical with or without a cache (a traced
	// run bypasses it so warm-up spans are recorded).
	Warm *WarmCache
}

// NoReplicas requests a deployment without read-only nodes.
const NoReplicas = -1

func (c OLTPConfig) withDefaults() OLTPConfig {
	c.SF, c.Seed = max(c.SF, 1), cmp.Or(c.Seed, 42)
	c.Replicas = max(cmp.Or(c.Replicas, 1), 0) // unset: one; NoReplicas: none
	c.Warmup = orDefault(c.Warmup, 2*time.Second)
	c.Measure = orDefault(c.Measure, 8*time.Second)
	return c
}

// OLTPResult is one measured cell.
type OLTPResult struct {
	Kind        cdb.Kind
	SF          int
	Mix         core.Mix
	Concurrency int

	TPS        float64
	P50        time.Duration
	P99        time.Duration
	HitRatio   float64 // RW-node buffer hit ratio over the whole run
	CostPerMin pricing.Breakdown
	PScore     float64
	// PStarScore is PScore against the vendor's actual price for the
	// measured window, minimum billing applied (Table IX's P*).
	PStarScore float64
}

// warmKey builds the memoization key for this configuration's warm-up.
func (c OLTPConfig) warmKey() WarmKey {
	return WarmKey{
		Kind: c.Kind, SF: c.SF, Mix: c.Mix, Concurrency: c.Concurrency,
		Distribution: c.Distribution, Replicas: c.Replicas,
		Warmup: c.Warmup, BufferBytes: c.BufferBytes, Seed: c.Seed,
	}
}

// oltpSpec declares one phase of an OLTP cell: span of cfg's traffic on its
// deployment. Both phases deploy the same shape so the catalogs line up for
// the snapshot restore; the measurement phase forks from warm.
func oltpSpec(cfg OLTPConfig, span time.Duration, warm *WarmSnapshot) spec {
	return spec{
		name: "oltp", prof: cdb.ProfileFor(cfg.Kind), warm: warm,
		opts: cdb.Options{
			SF: cfg.SF, Seed: cfg.Seed, Replicas: cfg.Replicas,
			BufferBytes: cfg.BufferBytes, PreWarm: warm == nil,
			// Throughput evaluation uses the provisioned (fixed) size.
			Serverless: cdb.Bool(false),
			Tracer:     cfg.Tracer,
		},
		clients: cfg.Concurrency, span: span, mix: cfg.Mix, distribution: cfg.Distribution,
	}
}

// RunOLTP measures steady-state throughput for one configuration. It always
// runs two phases — warm-up (possibly memoized via cfg.Warm) and measurement
// forked from the warm-up snapshot — so a cached and an uncached run produce
// byte-identical results.
func RunOLTP(cfg OLTPConfig) OLTPResult {
	cfg = cfg.withDefaults()
	var snap *WarmSnapshot
	if cfg.Warm != nil && cfg.Tracer == nil {
		snap = cfg.Warm.get(cfg.warmKey(), func() *WarmSnapshot { return runWarmup(cfg) })
	} else {
		snap = runWarmup(cfg)
	}

	// Measurement phase: the meters are read the moment the clients stop.
	sp := oltpSpec(cfg, cfg.Measure, snap)
	sp.drainEvery = noDrain
	rc := runCell(sp)
	d, col := rc.d, rc.col
	from, to := snap.offset, snap.offset+cfg.Measure
	perMin := pricing.PerMinuteBreakdown(d.ClusterPackage())
	res := OLTPResult{
		Kind: cfg.Kind, SF: cfg.SF, Mix: cfg.Mix, Concurrency: cfg.Concurrency,
		TPS:        col.TPS(from, to),
		P50:        col.Latency().Quantile(0.50),
		P99:        col.Latency().Quantile(0.99),
		HitRatio:   d.RW().Buf.HitRatio(),
		CostPerMin: perMin,
	}
	res.PScore = metrics.PScore(res.TPS, perMin.Total())
	res.PStarScore = metrics.PScore(res.TPS, d.ActualCost(from, to)/cfg.Measure.Minutes())
	return res
}

// Equation 5's λ (the largest RO node count RunE2 measures) and δ
// (calibrated so RDS's 17k->36k jump scores ~20), for Table IX's E2-Score.
const e2MaxReplicas, e2Delta = 1, 1000

// e2Warmup is the warm-up before each E2 cell's measured window. It does
// not follow the scale's warm-up: 200 ms (the tests' mini scale) or 0.5 s
// (bench) leaves the added RO node's buffer cold, so read-only TPS falls
// with one replica and CDB1's and CDB2's E2-Scores go negative.
const e2Warmup = 2 * time.Second

// E2Config parameterizes the scale-out elasticity measurement: read-only
// throughput at SF 1 as RO nodes are added (equation 5, Table IX's
// E2-Score).
type E2Config struct {
	Kind        cdb.Kind
	Concurrency int
	Measure     time.Duration
	Seed        int64
}

// E2Result holds TPS per replica count and the resulting score.
type E2Result struct {
	Kind    cdb.Kind
	TPS     []float64 // TPS[i] with i RO nodes
	E2Score float64
}

// RunE2 measures the scale-out elasticity score.
func RunE2(cfg E2Config) E2Result {
	res := E2Result{Kind: cfg.Kind}
	for replicas := 0; replicas <= e2MaxReplicas; replicas++ {
		r := RunOLTP(OLTPConfig{
			Kind: cfg.Kind, Mix: core.MixReadOnly,
			Concurrency: cfg.Concurrency, Replicas: cmp.Or(replicas, NoReplicas),
			Warmup: e2Warmup, Measure: cfg.Measure, Seed: cfg.Seed,
		})
		res.TPS = append(res.TPS, r.TPS)
	}
	res.E2Score = metrics.E2Score(res.TPS, e2Delta)
	return res
}
