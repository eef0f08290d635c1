package evaluator

import (
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/metrics"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// drainedLagReference runs cfg's lag cell by hand and waits, with no
// deadline, until the replica has applied every record it was shipped.
func drainedLagReference(t *testing.T, cfg LagConfig) (insert, update, del time.Duration) {
	s := sim.New(simEpoch)
	d := cdb.MustDeploy(s, cdb.ProfileFor(cfg.Kind), cdb.Options{Replicas: 1, PreWarm: true, Serverless: cdb.Bool(false)})
	r := core.NewRunner(s, core.Config{
		Name: "lag", Seed: 42, Mix: core.IUDMix(cfg.IUD[0], cfg.IUD[1], cfg.IUD[2]),
		Write: d.RW, Read: d.ReadNode, Collector: core.NewCollector(),
	})
	st := d.Streams()[0]
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(cfg.Concurrency)
		p.Sleep(cfg.Duration)
		r.Stop()
		r.Wait(p)
		for shipped, applied := st.Counts(); st.Backlog() > 0 || shipped != applied; shipped, applied = st.Counts() {
			p.Sleep(10 * time.Millisecond)
		}
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return st.MeanLag(storage.RecInsert), st.MeanLag(storage.RecUpdate), st.MeanLag(storage.RecDelete)
}

// TestRunLagMatchesDrainedReference: on CDB2 an insert-only load from 16
// clients commits faster than the log-service hop replays, so 3 s after the
// clients stop the replica is still applying (it needs about 5 s). RunLag
// must report the means of a run that shuts down only once every shipped
// record is applied.
func TestRunLagMatchesDrainedReference(t *testing.T) {
	cfg := LagConfig{Kind: cdb.CDB2, IUD: [3]float64{100, 0, 0}, Concurrency: 16, Duration: 3 * time.Second}
	got := RunLag(cfg)
	insert, update, del := drainedLagReference(t, cfg)
	if got.InsertLag != insert || got.UpdateLag != update || got.DeleteLag != del {
		t.Fatalf("RunLag means I/U/D = %v/%v/%v, the fully drained replica's = %v/%v/%v",
			got.InsertLag, got.UpdateLag, got.DeleteLag, insert, update, del)
	}
}

// pStarIdleReference is how P* was computed before it was read off the
// measured OLTP cell: a second simulation of the same SUT, idle for the
// measured window, priced by the vendor.
func pStarIdleReference(t *testing.T, cfg OLTPConfig, tps float64) float64 {
	cfg = cfg.withDefaults()
	s := sim.New(simEpoch)
	d := cdb.MustDeploy(s, cdb.ProfileFor(cfg.Kind), cdb.Options{
		SF: cfg.SF, Seed: cfg.Seed, Replicas: 1, Serverless: cdb.Bool(false),
	})
	s.Go("idle", func(p *sim.Proc) {
		p.Sleep(cfg.Measure)
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return metrics.PScore(tps, d.ActualCost(0, cfg.Measure)/cfg.Measure.Minutes())
}

// TestPStarMatchesIdleReference: Table IX's P* cell, a read-write OLTP cell
// on every SUT, prices its own measured window exactly as the idle second
// simulation did.
func TestPStarMatchesIdleReference(t *testing.T) {
	for _, kind := range cdb.Kinds {
		cfg := OLTPConfig{Kind: kind, Mix: core.MixReadWrite, Measure: 600 * time.Millisecond, Concurrency: 16}
		r := RunOLTP(cfg)
		if want := pStarIdleReference(t, cfg, r.TPS); r.PStarScore != want || want <= 0 {
			t.Errorf("%s: P* = %v, idle reference %v", kind, r.PStarScore, want)
		}
	}
}
