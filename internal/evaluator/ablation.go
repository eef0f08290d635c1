package evaluator

import "cloudybench/internal/cdb"

// Ablation cells re-deploy a profile variant with exactly one mechanism
// changed (the experiments' ablation sections). Their runners are named
// "ab", so their RNG streams differ from the paper cells'.

// RunLagAblation is RunLag's cell on a profile variant: cfg's IUD traffic
// with one replica, replication drained before the lag means are read.
// cfg.Kind is ignored; prof decides.
func RunLagAblation(prof cdb.Profile, cfg LagConfig) LagResult { return runLag("ab", prof, cfg) }

// RunOLTPAblation drives one single-phase OLTP cell on a profile variant:
// cfg.Concurrency clients for Warmup+Measure in one run, so there is no
// warm-up snapshot to memoize (cfg.Warm is ignored, as is cfg.Kind: prof
// decides). TPS covers the measured window, latency the whole run. preWarm
// starts the buffer pools full.
func RunOLTPAblation(prof cdb.Profile, cfg OLTPConfig, preWarm bool) OLTPResult {
	cfg = cfg.withDefaults()
	cfg.Kind = prof.Kind
	sp := oltpSpec(cfg, cfg.Warmup+cfg.Measure, nil)
	sp.name, sp.prof, sp.opts.PreWarm = "ab", prof, preWarm
	col := runCell(sp).col
	return OLTPResult{
		Kind: cfg.Kind, SF: cfg.SF, Mix: cfg.Mix, Concurrency: cfg.Concurrency,
		TPS: col.TPS(cfg.Warmup, cfg.Warmup+cfg.Measure),
		P50: col.Latency().Quantile(0.5),
		P99: col.Latency().Quantile(0.99),
	}
}
