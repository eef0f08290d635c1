package evaluator

import (
	"strings"
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/cluster"
	"cloudybench/internal/core"
	"cloudybench/internal/patterns"
)

func TestRunOLTPBasics(t *testing.T) {
	r := RunOLTP(OLTPConfig{
		Kind: cdb.CDB4, Mix: core.MixReadWrite, Concurrency: 16,
		Warmup: time.Second, Measure: 2 * time.Second,
	})
	if r.TPS < 1000 {
		t.Fatalf("CDB4 TPS = %v, want thousands", r.TPS)
	}
	if r.PScore <= 0 || r.P50 <= 0 || r.P99 < r.P50 {
		t.Fatalf("scores: P=%v p50=%v p99=%v", r.PScore, r.P50, r.P99)
	}
	if r.CostPerMin.Total() <= 0 {
		t.Fatal("no cost")
	}
}

func TestOLTPReadOnlyFasterThanWriteHeavy(t *testing.T) {
	ro := RunOLTP(OLTPConfig{Kind: cdb.RDS, Mix: core.MixReadOnly, Concurrency: 32,
		Warmup: time.Second, Measure: 2 * time.Second})
	wo := RunOLTP(OLTPConfig{Kind: cdb.RDS, Mix: core.MixWriteOnly, Concurrency: 32,
		Warmup: time.Second, Measure: 2 * time.Second})
	if ro.TPS <= wo.TPS {
		t.Fatalf("read-only TPS %v <= write-only %v", ro.TPS, wo.TPS)
	}
}

func TestOLTPShapeCDB4Fastest(t *testing.T) {
	// Paper Fig. 5: CDB4 has the highest throughput; CDB2 is buffer-bound.
	tps := map[cdb.Kind]float64{}
	for _, k := range []cdb.Kind{cdb.CDB2, cdb.CDB4} {
		r := RunOLTP(OLTPConfig{Kind: k, Mix: core.MixReadWrite, Concurrency: 64,
			Warmup: time.Second, Measure: 2 * time.Second})
		tps[k] = r.TPS
	}
	if tps[cdb.CDB4] <= tps[cdb.CDB2] {
		t.Fatalf("CDB4 (%v) should beat CDB2 (%v)", tps[cdb.CDB4], tps[cdb.CDB2])
	}
}

func TestRunE2AddingReplicaHelpsReads(t *testing.T) {
	r := RunE2(E2Config{Kind: cdb.RDS, Concurrency: 64, Measure: 2 * time.Second})
	if len(r.TPS) != 2 {
		t.Fatalf("TPS series: %v", r.TPS)
	}
	if r.TPS[1] <= r.TPS[0] {
		t.Fatalf("replica did not improve read TPS: %v", r.TPS)
	}
	if r.E2Score <= 0 {
		t.Fatalf("E2 = %v", r.E2Score)
	}
}

func TestRunLagOrderingAcrossSUTs(t *testing.T) {
	// Paper §III-F: CDB4 ~1.5ms < CDB3 ~14ms < CDB1 ~177ms < CDB2 ~1082ms.
	lag := map[cdb.Kind]time.Duration{}
	for _, k := range []cdb.Kind{cdb.CDB1, cdb.CDB2, cdb.CDB3, cdb.CDB4} {
		r := RunLag(LagConfig{Kind: k, IUD: [3]float64{60, 30, 10},
			Concurrency: 4, Duration: 4 * time.Second})
		if r.UpdateLag <= 0 {
			t.Fatalf("%s: no update lag measured", k)
		}
		lag[k] = r.CScore
	}
	if !(lag[cdb.CDB4] < lag[cdb.CDB3] && lag[cdb.CDB3] < lag[cdb.CDB1] && lag[cdb.CDB1] < lag[cdb.CDB2]) {
		t.Fatalf("lag ordering wrong: %v", lag)
	}
	// Magnitudes within ~3x of the paper's values.
	if lag[cdb.CDB4] > 10*time.Millisecond {
		t.Fatalf("CDB4 lag %v, want ~ms scale", lag[cdb.CDB4])
	}
	if lag[cdb.CDB2] < 300*time.Millisecond {
		t.Fatalf("CDB2 lag %v, want ~second scale", lag[cdb.CDB2])
	}
}

func TestRunLagProbeAgreesWithReservoir(t *testing.T) {
	r := RunLag(LagConfig{Kind: cdb.CDB3, IUD: [3]float64{0, 100, 0},
		Concurrency: 4, Duration: 3 * time.Second, Probes: 5})
	if r.ProbeLag <= 0 {
		t.Fatal("no probe lag measured")
	}
	// Client-observed lag should be the same order of magnitude as the
	// stream's internal mean lag.
	if r.ProbeLag > r.UpdateLag*20 || r.UpdateLag > r.ProbeLag*20 {
		t.Fatalf("probe %v vs stream mean lag %v diverge wildly", r.ProbeLag, r.UpdateLag)
	}
}

func TestRunElasticityServerlessScalesAndSaves(t *testing.T) {
	slot := 30 * time.Second
	serverless := RunElasticity(ElasticityConfig{
		Kind: cdb.CDB3, Pattern: patterns.SinglePeak, Mix: core.MixReadWrite,
		Tau: 40, SlotLength: slot,
	})
	fixed := RunElasticity(ElasticityConfig{
		Kind: cdb.CDB3, Pattern: patterns.SinglePeak, Mix: core.MixReadWrite,
		Tau: 40, SlotLength: slot, Serverless: cdb.Bool(false),
	})
	// The autoscaler must actually change allocation.
	moved := false
	for i := 1; i < len(serverless.Cores); i++ {
		if serverless.Cores[i] != serverless.Cores[0] {
			moved = true
		}
	}
	if !moved {
		t.Fatalf("serverless cores series flat: %v", serverless.Cores)
	}
	// Serverless costs less over the 10-slot window (idle slots scale to
	// zero or minimum).
	if serverless.TotalCost >= fixed.TotalCost {
		t.Fatalf("serverless cost %v >= fixed %v", serverless.TotalCost, fixed.TotalCost)
	}
	// Paper: enabling serverless degrades peak performance.
	if serverless.AvgTPS >= fixed.AvgTPS {
		t.Fatalf("serverless TPS %v >= fixed %v (expected degradation)", serverless.AvgTPS, fixed.AvgTPS)
	}
	if len(serverless.Transitions) != 2 {
		t.Fatalf("single peak transitions = %d, want 2", len(serverless.Transitions))
	}
}

func TestRunElasticityCDB1GradualDownSlowerThanCDB2(t *testing.T) {
	slot := 30 * time.Second
	run := func(kind cdb.Kind) ElasticityResult {
		return RunElasticity(ElasticityConfig{
			Kind: kind, Pattern: patterns.SinglePeak, Mix: core.MixReadWrite,
			Tau: 40, SlotLength: slot,
		})
	}
	c1, c2 := run(cdb.CDB1), run(cdb.CDB2)
	down1 := c1.Transitions[len(c1.Transitions)-1]
	down2 := c2.Transitions[len(c2.Transitions)-1]
	if down1.ScalingTime <= down2.ScalingTime {
		t.Fatalf("CDB1 scale-down %v should exceed CDB2 %v (gradual descent)",
			down1.ScalingTime, down2.ScalingTime)
	}
}

func TestRunTenancyPoolWinsStaggered(t *testing.T) {
	slot := 5 * time.Second
	run := func(kind cdb.Kind, pk patterns.TenancyKind) TenancyResult {
		return RunTenancy(TenancyConfig{
			Kind: kind, Pattern: patterns.PaperTenancy(pk), SlotLength: slot,
		})
	}
	// Staggered high: the pool can hand all 12 vCores to the single busy
	// tenant; isolated CDB1 caps it at 4.
	poolStag := run(cdb.CDB2, patterns.StaggeredHigh)
	isoStag := run(cdb.CDB1, patterns.StaggeredHigh)
	if poolStag.TotalTPS <= isoStag.TotalTPS {
		t.Fatalf("pool staggered TPS %v <= isolated %v", poolStag.TotalTPS, isoStag.TotalTPS)
	}
	// High contention: isolation protects tenants; CDB1 beats CDB2.
	poolHigh := run(cdb.CDB2, patterns.HighContention)
	isoHigh := run(cdb.CDB1, patterns.HighContention)
	if isoHigh.TotalTPS <= poolHigh.TotalTPS {
		t.Fatalf("isolated contention TPS %v <= pool %v", isoHigh.TotalTPS, poolHigh.TotalTPS)
	}
	if poolStag.TScore <= 0 || isoHigh.TScore <= 0 {
		t.Fatal("T-Scores missing")
	}
	if len(poolStag.TenantTPS) != 3 {
		t.Fatalf("tenant TPS: %v", poolStag.TenantTPS)
	}
}

// TestRunFailoverShapes pins Table VIII's emergent shape: RDS, recovering in
// place through full ARIES redo, has the largest F(RW) of the five; the
// promotion architecture's timeline keeps every Figure 7 phase in order; and
// an RO kill is measured too.
func TestRunFailoverShapes(t *testing.T) {
	short := func(kind cdb.Kind, role cluster.Role) FailoverResult {
		return RunFailover(FailoverConfig{
			Kind: kind, Role: role, Concurrency: 12,
			Baseline: 8 * time.Second, Timeout: 10 * time.Second,
		})
	}
	f := map[cdb.Kind]time.Duration{}
	var c4 FailoverResult
	for _, kind := range cdb.Kinds {
		r := short(kind, cluster.RW)
		if r.F == 0 {
			t.Fatalf("%s: no outage measured", kind)
		}
		f[kind] = r.F
		if kind == cdb.CDB4 {
			c4 = r
		}
	}
	for _, kind := range cdb.Kinds[1:] {
		if f[kind] >= f[cdb.RDS] {
			t.Errorf("%s F(RW) %v >= RDS F(RW) %v; F by SUT: %v", kind, f[kind], f[cdb.RDS], f)
		}
	}
	phases := []string{"RW crash injected", "RW failure detected", "prepare", "switch-over",
		"recovering", "RW' serving requests", "old RW rejoined"}
	next := 0
	for _, ev := range c4.Timeline {
		if next < len(phases) && strings.HasPrefix(ev.Phase, phases[next]) {
			next++
		}
	}
	if next < len(phases) {
		t.Fatalf("CDB4 timeline lacks Figure 7 phase %q: %v", phases[next], c4.Timeline)
	}
	ro := short(cdb.CDB1, cluster.RO)
	if ro.F == 0 {
		t.Fatal("RO failure not observed")
	}
	if ro.BaselineTPS <= 0 {
		t.Fatal("no baseline TPS")
	}
}

// TestRunFailoverFGrowsWithLogSinceCheckpoint: RDS's F(RW) is detection plus
// an ARIES pass whose redo window is the log written since the last
// checkpoint (every 30s), so a longer baseline before the kill means a
// longer outage.
func TestRunFailoverFGrowsWithLogSinceCheckpoint(t *testing.T) {
	var prev time.Duration
	for _, baseline := range []time.Duration{4 * time.Second, 10 * time.Second, 16 * time.Second, 22 * time.Second} {
		r := RunFailover(FailoverConfig{
			Kind: cdb.RDS, Role: cluster.RW, Concurrency: 3,
			Baseline: baseline, Timeout: 16 * time.Second,
		})
		if r.F <= prev {
			t.Fatalf("baseline %v: F = %v, not above %v at the shorter baseline", baseline, r.F, prev)
		}
		prev = r.F
	}
}

// TestRunFailoverREndsWhereObservationStops: the observation stops once
// throughput is back, and R must end inside it rather than fall back to the
// whole window. Two criteria would disagree here: a 3-s mean over a window
// not aligned to the 1-s buckets stops CDB3's run about 17s after the kill,
// while no single bucket reaches 90 % of baseline, so a per-bucket R would
// report F+R as the whole window.
func TestRunFailoverREndsWhereObservationStops(t *testing.T) {
	cfg := FailoverConfig{
		Kind: cdb.CDB3, Role: cluster.RW, Concurrency: 60,
		Baseline: 6 * time.Second, Timeout: 60 * time.Second,
	}
	r := RunFailover(cfg)
	if r.F == 0 || r.F+r.R >= cfg.Timeout {
		t.Fatalf("F = %v, R = %v: throughput recovery not found inside the %v window", r.F, r.R, cfg.Timeout)
	}
}

// TestRunFailoverReportsTotalOutage: when the service never comes back
// inside the observation window (a 3s window against RDS's 2s detection plus
// a recovery pass of at least 1.5s), the result must report the full window
// as phase one, not the F=0/R=0 of a perfect run.
func TestRunFailoverReportsTotalOutage(t *testing.T) {
	r := RunFailover(FailoverConfig{
		Kind: cdb.RDS, Role: cluster.RW, Concurrency: 30,
		Baseline: 5 * time.Second, Timeout: 3 * time.Second,
	})
	if r.BaselineTPS <= 0 {
		t.Fatal("no baseline TPS")
	}
	if r.F != 3*time.Second {
		t.Fatalf("F = %v, want the full 3s observation window", r.F)
	}
	if r.R != 0 {
		t.Fatalf("R = %v, want 0 (service never returned, R unmeasurable)", r.R)
	}
}
