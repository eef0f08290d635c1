package experiments

import "testing"

// TestChaosGolden pins the rendered chaos-gauntlet report byte for byte:
// verdict sheets, commit/error counts, fault counts, TPS and quiesce time
// for every SUT under the fixed seed. Regenerate deliberately with -update.
func TestChaosGolden(t *testing.T) {
	sess := shared(t, mini)
	results := read(sess.chaosCells)
	out, err := Chaos(sess)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "chaos", out)
	for _, r := range results {
		if !r.Passed() {
			t.Errorf("%s chaos verdicts failed: %v", r.Kind, r.Verdicts)
		}
	}
}
