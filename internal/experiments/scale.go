// Package experiments maps every table and figure of the paper's
// evaluation (§III) to a runnable driver: Figure 5 and Table V (OLTP and
// P-Score), Figure 6 and Table VI (elasticity), Table VII (multi-tenancy),
// Table VIII and Figure 7 (fail-over), the §III-F lag-time table, Table IX
// (PERFECT overall), Figure 8 (buffer sweep), and Figure 9 (comparison
// with SysBench and TPC-C).
//
// Each driver takes a Scale: Quick shrinks windows so the whole suite
// regenerates in minutes of wall time, Paper uses the paper's one-minute
// slots and full sweeps. Shapes — who wins, by what rough factor, where
// crossovers fall — are slot-length invariant in the simulator, so Quick
// reproduces the paper's qualitative results.
package experiments

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
)

// Scale sizes all experiment windows.
type Scale struct {
	Name string

	// OLTP cells (Figure 5, Table V, Figure 8, E2).
	Warmup      time.Duration
	Measure     time.Duration
	Concurrency []int // concurrency sweep for Figure 5
	SFs         []int // scale factors for Figure 5

	// Elasticity (Figure 6, Table VI, Figure 9).
	SlotLength time.Duration
	CostSlots  int
	Tau        int

	// Fail-over (Table VIII, Figure 7).
	FailBaseline time.Duration
	FailTimeout  time.Duration
	FailConc     int

	// Lag (§III-F table).
	LagDuration time.Duration
	LagConc     int

	// Chaos gauntlet (cloudybench run chaos).
	ChaosSpan time.Duration
	ChaosConc int

	// Partition gauntlet (cloudybench run partition).
	PartSpan time.Duration
	PartConc int

	// Crash gauntlet (cloudybench run crash) — the traffic window the
	// kill schedule is compiled onto, and the client count keeping the WAL
	// growing while the kills land.
	CrashSpan time.Duration
	CrashConc int

	// Scenario suites (cloudybench run suites) — registered workload
	// families on every SUT, plus their chaos/partition composition cells.
	SuiteSpan time.Duration
	SuiteConc int

	// Soak (cloudybench run soak) — days of virtual time per SUT, the timeline
	// window width (must divide 24h into >= 4 windows), the traffic burst
	// per window, the per-tenant client count, and how many windows pass
	// between in-flight invariant sweeps.
	SoakDays       int
	SoakWindow     time.Duration
	SoakBurst      time.Duration
	SoakConc       int
	SoakSweepEvery int

	// ArtifactDir, when non-empty, makes artifact-emitting experiments
	// (the "soak" comparison bundle) write their CSV/Markdown files into
	// the directory, which must exist (cloudybench creates it before any
	// experiment runs). Empty keeps output on stdout.
	ArtifactDir string

	// TraceDir, when non-empty, makes trace-aware experiments (the "oltp"
	// stage-profile run) write JSONL span files and a Prometheus-text
	// metrics snapshot into the directory, which must exist. Empty
	// disables file emission; the stage-breakdown tables still render.
	TraceDir string

	Seed int64
}

// Quick is the default scale: seconds-long windows, single scale factor,
// reduced sweep. The full suite completes in a few minutes.
var Quick = Scale{
	Name:           "quick",
	Warmup:         time.Second,
	Measure:        3 * time.Second,
	Concurrency:    []int{50, 150},
	SFs:            []int{1},
	SlotLength:     5 * time.Second,
	CostSlots:      10,
	Tau:            110,
	FailBaseline:   6 * time.Second,
	FailTimeout:    60 * time.Second,
	FailConc:       60,
	LagDuration:    4 * time.Second,
	LagConc:        8,
	ChaosSpan:      8 * time.Second,
	ChaosConc:      8,
	PartSpan:       18 * time.Second,
	PartConc:       12,
	CrashSpan:      20 * time.Second,
	CrashConc:      12,
	SuiteSpan:      6 * time.Second,
	SuiteConc:      8,
	SoakDays:       3,
	SoakWindow:     2 * time.Hour,
	SoakBurst:      time.Second,
	SoakConc:       4,
	SoakSweepEvery: 3,
	Seed:           42,
}

// Paper approximates the paper's setup: one-minute slots, the full
// concurrency sweep, and all three scale factors. Expect tens of minutes.
var Paper = Scale{
	Name:           "paper",
	Warmup:         5 * time.Second,
	Measure:        20 * time.Second,
	Concurrency:    []int{50, 100, 150, 200},
	SFs:            []int{1, 10, 100},
	SlotLength:     time.Minute,
	CostSlots:      10,
	Tau:            110,
	FailBaseline:   10 * time.Second,
	FailTimeout:    120 * time.Second,
	FailConc:       150,
	LagDuration:    15 * time.Second,
	LagConc:        16,
	ChaosSpan:      30 * time.Second,
	ChaosConc:      32,
	PartSpan:       40 * time.Second,
	PartConc:       32,
	CrashSpan:      40 * time.Second,
	CrashConc:      24,
	SuiteSpan:      20 * time.Second,
	SuiteConc:      16,
	SoakDays:       7,
	SoakWindow:     time.Hour,
	SoakBurst:      2 * time.Second,
	SoakConc:       8,
	SoakSweepEvery: 4,
	Seed:           42,
}

// Bench compresses the experiment windows further than Quick so the whole
// suite of artifacts completes in seconds — the scale used by the
// regeneration benchmarks (bench_test.go) and by the CI artifact jobs.
// Host-cost measurements come from `go run ./benchmark`.
var Bench = Scale{
	Name:           "bench",
	Warmup:         500 * time.Millisecond,
	Measure:        1500 * time.Millisecond,
	Concurrency:    []int{100},
	SFs:            []int{1},
	SlotLength:     3 * time.Second,
	CostSlots:      6,
	Tau:            110,
	FailBaseline:   6 * time.Second,
	FailTimeout:    45 * time.Second,
	FailConc:       30,
	LagDuration:    2500 * time.Millisecond,
	LagConc:        6,
	ChaosSpan:      6 * time.Second,
	ChaosConc:      6,
	PartSpan:       12 * time.Second,
	PartConc:       6,
	CrashSpan:      12 * time.Second,
	CrashConc:      6,
	SuiteSpan:      3 * time.Second,
	SuiteConc:      4,
	SoakDays:       3,
	SoakWindow:     6 * time.Hour,
	SoakBurst:      600 * time.Millisecond,
	SoakConc:       2,
	SoakSweepEvery: 2,
	Seed:           42,
}

// ScaleByName resolves "quick", "paper", or "bench".
func ScaleByName(name string) (Scale, bool) {
	switch name {
	case "", "quick":
		return Quick, true
	case "paper":
		return Paper, true
	case "bench":
		return Bench, true
	}
	return Scale{}, false
}

// Mixes are the paper's three workload modes in reporting order.
var Mixes = []struct {
	Name string
	Mix  core.Mix
}{
	{"RO", core.MixReadOnly},
	{"RW", core.MixReadWrite},
	{"WO", core.MixWriteOnly},
}

// SUTs lists the systems in the paper's reporting order.
var SUTs = cdb.Kinds

// perSUT returns cell(kind) for every SUT, in SUTs' order.
func perSUT[C any](cell func(cdb.Kind) C) []C {
	out := make([]C, len(SUTs))
	for i, kind := range SUTs {
		out[i] = cell(kind)
	}
	return out
}
