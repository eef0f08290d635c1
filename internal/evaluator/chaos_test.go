package evaluator

import (
	"fmt"
	"testing"
	"time"

	"cloudybench/internal/cdb"
)

// chaosFingerprint flattens a result into a comparable string: every metric,
// verdict, and applied-fault timestamp.
func chaosFingerprint(r ChaosResult) string {
	s := fmt.Sprintf("%s c=%d a=%d e=%d f=%d tps=%.6f q=%v|", r.Kind, r.Commits, r.Aborts, r.Errors, r.InjectedFaults, r.TPS, r.QuiesceTime)
	for _, v := range r.Verdicts {
		s += fmt.Sprintf("%s=%v/%d;", v.Name, v.Passed, v.Checked)
	}
	for _, a := range r.Applied {
		s += fmt.Sprintf("%v:%s:%s;", a.At, a.Kind, a.Target)
	}
	return s
}

// quickChaos runs a short gauntlet.
func quickChaos(kind cdb.Kind) ChaosResult {
	return RunChaos(ChaosConfig{Kind: kind, Span: 6 * time.Second, Concurrency: 4, Seed: 7})
}

// TestChaosInvariantsHoldUnderFaults runs one representative of each
// architecture family through the gauntlet (the full five-SUT sweep runs in
// the experiment; a pair keeps test wall time sane).
func TestChaosInvariantsHoldUnderFaults(t *testing.T) {
	for _, kind := range []cdb.Kind{cdb.RDS, cdb.CDB4} {
		r := quickChaos(kind)
		if !r.Passed() {
			for _, v := range r.Verdicts {
				t.Errorf("%s %s: %s", kind, v.Name, v)
			}
		}
		if r.Commits == 0 {
			t.Errorf("%s: no commits recorded", kind)
		}
		if len(r.Applied) == 0 {
			t.Errorf("%s: no faults applied", kind)
		}
	}
}

// TestChaosRunIsDeterministic demands the whole verdict sheet — metrics,
// fault log, verdicts — be identical across two runs of the same seed.
func TestChaosRunIsDeterministic(t *testing.T) {
	a := chaosFingerprint(quickChaos(cdb.CDB1))
	b := chaosFingerprint(quickChaos(cdb.CDB1))
	if a != b {
		t.Fatalf("chaos run diverged:\n%s\nvs\n%s", a, b)
	}
}
