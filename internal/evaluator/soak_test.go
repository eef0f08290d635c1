package evaluator

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudybench/internal/cdb"
)

func soakTestConfig(seed int64) SoakConfig {
	return SoakConfig{
		Kind: cdb.CDB1, Days: 3, Window: 6 * time.Hour,
		Burst: 500 * time.Millisecond, Concurrency: 2, SweepEvery: 2, Seed: seed,
	}
}

// soakFingerprint canonicalizes everything a soak run reports — window
// rows, costs, sweeps, anomalies, marks, final verdicts, applied chaos —
// into one string, so two runs can be compared byte-for-byte.
func soakFingerprint(r SoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s days=%d window=%v commits=%d errors=%d terminals=%d cost=%.6f\n",
		r.Kind, r.Days, r.Window, r.Commits, r.Errors, r.Terminals, r.TotalCost)
	for _, w := range r.Windows {
		fmt.Fprintf(&b, "w%03d [%v,%v) txns=%d c=%d e=%d p50=%v p99=%v tput=%.4f cost=%.6f per1k=%.6f\n",
			w.Index, w.Start, w.End, w.Txns, w.Commits, w.Errors, w.P50, w.P99,
			w.Throughput, w.Cost, w.CostPer1kTxn)
	}
	for _, s := range r.Sweeps {
		fmt.Fprintf(&b, "sweep w%03d at=%v pass=%v", s.Window, s.At, s.Passed())
		for _, v := range s.Verdicts {
			fmt.Fprintf(&b, " %s=%v/%d", v.Name, v.Passed, v.Checked)
		}
		b.WriteString("\n")
	}
	for _, a := range r.Anomalies {
		fmt.Fprintf(&b, "anomaly w%03d at=%v %s: %s\n", a.Window, a.At, a.Kind, a.Detail)
	}
	for _, m := range r.Timeline.Marks() {
		fmt.Fprintf(&b, "mark at=%v %s pass=%v %s\n", m.At, m.Kind, m.Pass, m.Detail)
	}
	for _, v := range r.Verdicts {
		fmt.Fprintf(&b, "verdict %s=%v/%d\n", v.Name, v.Passed, v.Checked)
	}
	for _, a := range r.Applied {
		fmt.Fprintf(&b, "chaos at=%v %s %s\n", a.At, a.Kind, a.Target)
	}
	return b.String()
}

// TestSoakLongitudinal is the soak runner's structural contract over three
// virtual days: full window coverage, in-flight sweeps that pass, the
// seeded blackout anomalies at their deterministic virtual timestamps, and
// a timeline whose aggregation equals the tracer's whole-run aggregation.
func TestSoakLongitudinal(t *testing.T) {
	cfg := soakTestConfig(7)
	r := RunSoak(cfg)

	wpd := int(24 * time.Hour / cfg.Window) // 4
	total := cfg.Days * wpd                 // 12
	if len(r.Windows) != total {
		t.Fatalf("windows = %d, want %d", len(r.Windows), total)
	}
	for i, w := range r.Windows {
		if w.Index != i || w.Start != time.Duration(i)*cfg.Window || w.End != w.Start+cfg.Window {
			t.Fatalf("window %d has wrong bounds: %+v", i, w.WindowRow)
		}
		if w.Txns == 0 {
			t.Fatalf("window %d saw no traffic; every window hosts a burst", i)
		}
		if w.Cost <= 0 {
			t.Fatalf("window %d has no cost: %+v", i, w)
		}
	}
	if r.Commits == 0 || r.Terminals == 0 {
		t.Fatalf("commits=%d terminals=%d; want both positive (blackouts abandon txns)",
			r.Commits, r.Terminals)
	}

	// The timeline is a lossless windowing of the tracer's stream: merging
	// every window must reproduce the whole-run stage aggregation.
	if !r.Timeline.Aggregate().Equal(r.Agg) {
		t.Fatal("timeline aggregate != tracer whole-run aggregate")
	}

	// Sweeps land after every SweepEvery-th window's burst, carry the six
	// in-flight invariants, and all pass.
	wantSweeps := total / cfg.SweepEvery
	if len(r.Sweeps) != wantSweeps {
		t.Fatalf("sweeps = %d, want %d", len(r.Sweeps), wantSweeps)
	}
	for _, s := range r.Sweeps {
		if len(s.Verdicts) != 6 {
			t.Fatalf("sweep at w%d has %d verdicts, want 6", s.Window, len(s.Verdicts))
		}
		names := make([]string, len(s.Verdicts))
		for i, v := range s.Verdicts {
			names[i] = v.Name
		}
		joined := strings.Join(names, " ")
		for _, want := range []string{"conservation", "read-committed", "durability", "no-resurrection", "index-coherent", "split-brain"} {
			if !strings.Contains(joined, want) {
				t.Fatalf("sweep verdicts %v missing %q", names, want)
			}
		}
		if !s.Passed() {
			t.Fatalf("in-flight sweep failed at w%d: %s", s.Window, soakFingerprint(r))
		}
	}
	if !r.Passed() {
		t.Fatalf("soak verdicts failed:\n%s", soakFingerprint(r))
	}

	// The seeded client blackout cuts the last window of every day: those
	// windows record attempts but zero commits, and the anomaly pass flags
	// each as unavailability stamped at the window's virtual start time.
	byWindow := map[int]string{}
	for _, a := range r.Anomalies {
		byWindow[a.Window] = a.Kind
		if a.At != time.Duration(a.Window)*cfg.Window {
			t.Fatalf("anomaly %+v not stamped at its window start", a)
		}
	}
	for d := 0; d < cfg.Days; d++ {
		w := d*wpd + wpd - 1
		if r.Windows[w].Commits != 0 {
			t.Fatalf("blackout window %d committed %d txns", w, r.Windows[w].Commits)
		}
		if byWindow[w] != "unavailability" {
			t.Fatalf("window %d (day %d blackout, virtual %v) flagged %q, want unavailability\nanomalies: %+v",
				w, d, time.Duration(w)*cfg.Window, byWindow[w], r.Anomalies)
		}
	}

	// Marks carry all three event kinds, sorted by virtual time.
	kinds := map[string]int{}
	marks := r.Timeline.Marks()
	for i, m := range marks {
		kinds[m.Kind]++
		if i > 0 && m.At < marks[i-1].At {
			t.Fatal("marks out of order")
		}
	}
	if kinds["sweep"] != wantSweeps || kinds["chaos"] == 0 || kinds["anomaly"] == 0 {
		t.Fatalf("mark kinds = %v", kinds)
	}
}

// TestSoakCrossGOMAXPROCSDeterminism holds the full longitudinal artifact —
// every window row, cost, sweep verdict, anomaly, and mark — byte-identical
// across real parallelism levels.
func TestSoakCrossGOMAXPROCSDeterminism(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	one := soakFingerprint(RunSoak(soakTestConfig(7)))
	runtime.GOMAXPROCS(8)
	eight := soakFingerprint(RunSoak(soakTestConfig(7)))
	runtime.GOMAXPROCS(prev)
	if one != eight {
		t.Fatalf("soak artifact differs across GOMAXPROCS:\nP=1:\n%s\nP=8:\n%s", one, eight)
	}
	// A different seed must actually move the numbers.
	if other := soakFingerprint(RunSoak(soakTestConfig(8))); other == one {
		t.Fatal("different seeds produced identical soak artifacts (suspicious)")
	}
}
