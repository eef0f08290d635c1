package experiments

import (
	"strings"
	"testing"
	"time"

	"cloudybench/internal/cdb"
)

// tiny is an ultra-small scale for unit tests.
var tiny = Scale{
	Name:           "tiny",
	Warmup:         500 * time.Millisecond,
	Measure:        time.Second,
	Concurrency:    []int{16},
	SFs:            []int{1},
	SlotLength:     2 * time.Second,
	CostSlots:      4,
	Tau:            24,
	FailBaseline:   6 * time.Second,
	FailTimeout:    60 * time.Second,
	FailConc:       24,
	LagDuration:    2 * time.Second,
	LagConc:        4,
	PartSpan:       8 * time.Second,
	PartConc:       4,
	CrashSpan:      10 * time.Second,
	CrashConc:      6,
	SuiteSpan:      3 * time.Second,
	SuiteConc:      4,
	SoakDays:       3,
	SoakWindow:     6 * time.Hour,
	SoakBurst:      200 * time.Millisecond,
	SoakConc:       1,
	SoakSweepEvery: 2,
	Seed:           42,
}

// mini shrinks every window to the determinism-test minimum: big enough to
// exercise queueing, autoscaling transitions, and replication, small enough
// to re-run the same experiment several times in one test.
var mini = Scale{
	Name:           "mini",
	Warmup:         200 * time.Millisecond,
	Measure:        600 * time.Millisecond,
	Concurrency:    []int{8},
	SFs:            []int{1},
	SlotLength:     time.Second,
	CostSlots:      3,
	Tau:            12,
	FailBaseline:   2 * time.Second,
	FailTimeout:    20 * time.Second,
	FailConc:       8,
	LagDuration:    time.Second,
	LagConc:        3,
	ChaosSpan:      3 * time.Second,
	ChaosConc:      3,
	PartSpan:       4 * time.Second,
	PartConc:       3,
	CrashSpan:      8 * time.Second,
	CrashConc:      4,
	SuiteSpan:      1500 * time.Millisecond,
	SuiteConc:      3,
	SoakDays:       3,
	SoakWindow:     6 * time.Hour,
	SoakBurst:      300 * time.Millisecond,
	SoakConc:       1,
	SoakSweepEvery: 2,
	Seed:           42,
}

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{"ablations", "chaos", "crash", "f5", "f6", "f7", "f8", "f9", "lag", "oltp", "partition", "soak", "suites", "t5", "t6", "t7", "t8", "t9"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("ids = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ids = %v, want %v", got, want)
		}
	}
	for _, id := range want {
		if desc, ok := Describe(id); !ok || desc == "" {
			t.Fatalf("no description for %s", id)
		}
	}
	if _, err := Run("nope", tiny); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestScaleByName(t *testing.T) {
	if sc, ok := ScaleByName(""); !ok || sc.Name != "quick" {
		t.Fatal("default scale")
	}
	if sc, ok := ScaleByName("paper"); !ok || sc.SlotLength != time.Minute {
		t.Fatal("paper scale")
	}
	if _, ok := ScaleByName("nope"); ok {
		t.Fatal("bad scale accepted")
	}
}

func TestFigure5ProducesCells(t *testing.T) {
	sess := shared(t, tiny)
	if cells := read(sess.figure5Cells); len(cells) != 1*3*1*5 { // SFs x mixes x cons x SUTs
		t.Fatalf("cells = %d", len(cells))
	}
	out, err := Figure5(sess)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SF1") || !strings.Contains(out, "con=16") {
		t.Fatalf("render:\n%s", out)
	}
}

// TestTableVRendersAllSystems: Table V, which prices Figure 5's cells,
// renders every system from them without running a cell of its own when
// both share a session.
func TestTableVRendersAllSystems(t *testing.T) {
	sess := shared(t, tiny)
	read(sess.figure5Cells)
	ran := len(sess.cells)
	results := read(sess.tableVCells)
	out, err := TableV(sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.cells) != ran {
		t.Fatalf("Table V ran %d cells after Figure 5", len(sess.cells)-ran)
	}
	for _, kind := range SUTs {
		if !strings.Contains(out, string(kind)) {
			t.Fatalf("missing %s in:\n%s", kind, out)
		}
	}
	if len(results) != 15 { // 5 SUTs x 3 mixes
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.TPS <= 0 || r.PScore <= 0 {
			t.Fatalf("bad result: %+v", r)
		}
	}
}

func TestFigure8BufferSweepShape(t *testing.T) {
	sess := shared(t, tiny)
	results := read(sess.figure8Cells)
	out, err := Figure8(sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 { // 3 SUTs x 4 buffers
		t.Fatalf("cells = %d", len(results))
	}
	// Within each SUT, bigger buffers must not reduce hit ratio.
	byKind := map[cdb.Kind][]float64{}
	for _, r := range results {
		byKind[r.Kind] = append(byKind[r.Kind], r.HitRatio)
	}
	for kind, hits := range byKind {
		for i := 1; i < len(hits); i++ {
			if hits[i]+0.02 < hits[i-1] {
				t.Fatalf("%s: hit ratio fell with bigger buffer: %v", kind, hits)
			}
		}
	}
	_ = out
}

func TestAblationsShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	sess := shared(t, tiny)
	read(sess.ablationCells)
	out, err := Ablations(sess)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"parallel log replay", "remote buffer pool", "redo pushdown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure9ScalingRangeShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	sess := shared(t, tiny)
	results := read(sess.figure9Cells)
	out, err := Figure9(sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	cb, sys, tpcc := results[0], results[1], results[2]
	// The paper's headline: CloudyBench exercises a wider scaling range
	// than either constant-load baseline.
	if cb.Max-cb.Min <= sys.Max-sys.Min {
		t.Fatalf("cloudybench range %.2f <= sysbench %.2f\n%s",
			cb.Max-cb.Min, sys.Max-sys.Min, out)
	}
	if cb.Max-cb.Min <= tpcc.Max-tpcc.Min {
		t.Fatalf("cloudybench range %.2f <= tpcc %.2f\n%s",
			cb.Max-cb.Min, tpcc.Max-tpcc.Min, out)
	}
	for _, r := range results {
		if r.Commits == 0 {
			t.Fatalf("%s: no commits", r.Workload)
		}
	}
	// Load that falls and rises again must bring the allocation back: a
	// serverless CDB3 pauses to zero cores only while its clients are idle.
	busy := 0
	for _, c := range cb.Cores {
		if c > 0 {
			busy++
		}
	}
	if busy < len(cb.Cores)/2 {
		t.Fatalf("cloudybench allocation is non-zero in %d of %d slots\n%s", busy, len(cb.Cores), out)
	}
}

func TestRunCustomElasticityFromProps(t *testing.T) {
	props := `
elastic_testTime = 3
first_con  = 4
second_con = 16
third_con  = 4
system = cdb2
mix = 0:0:100
slot = 2s
cost_slots = 4
`
	out, err := RunCustomElasticity(props)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cdb2", "avg TPS", "E1-Score", "Transitions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Error paths: bad props, unknown system, all-zero pattern, bad mix,
	// non-positive slot and costing window.
	for _, bad := range []string{
		"nonsense",
		"elastic_testTime = 1\nfirst_con = 5\nsystem = nope",
		"elastic_testTime = 1\nfirst_con = 0",
		"elastic_testTime = 1\nfirst_con = 5\nmix = bad",
		"elastic_testTime = 1\nfirst_con = 5\nslot = -5s",
		"elastic_testTime = 1\nfirst_con = 5\ncost_slots = 0",
	} {
		if _, err := RunCustomElasticity(bad); err == nil {
			t.Errorf("props %q accepted", bad)
		}
	}
}
