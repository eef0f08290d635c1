package experiments

import (
	"strings"
	"testing"

	"cloudybench/internal/cdb"
)

// TestCrashGolden pins the rendered crash-gauntlet report byte for byte: it
// feeds EXPERIMENTS.md verbatim, and any drift in recovery stats, verdicts,
// or timeline marks under the fixed seed is a behaviour change. Regenerate
// deliberately with -update.
func TestCrashGolden(t *testing.T) {
	sess := shared(t, mini)
	read(sess.crashCells)
	out, err := Crash(sess)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "crash", out)
}

// TestCrashGauntletShapes: the experiment's headline — every architecture
// survives the kill schedule with its durability verdicts green, and the
// recovery work is real (some primary kill redoes log records; some torn
// tail is detected and cut) — must be visible in the raw results and the
// rendered report.
func TestCrashGauntletShapes(t *testing.T) {
	sess := shared(t, tiny)
	results := read(sess.crashCells)
	out, err := Crash(sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(SUTs) {
		t.Fatalf("results = %d, want %d", len(results), len(SUTs))
	}
	sawRedo, sawTorn := false, false
	for _, r := range results {
		if !r.Passed() {
			for _, v := range r.Verdicts {
				t.Errorf("%s %s: %s", r.Kind, v.Name, v)
			}
		}
		if r.Commits == 0 {
			t.Errorf("%s: no commits under the crash schedule", r.Kind)
		}
		if len(r.Crashes) == 0 {
			t.Errorf("%s: no kills fired", r.Kind)
		}
		for _, c := range r.Crashes {
			if c.Err != "" {
				t.Errorf("%s: recovery failed at %v on %s: %s", r.Kind, c.At, c.Target, c.Err)
			}
			if c.Stats.RedoSince > 0 {
				sawRedo = true
			}
			if c.Stats.TornDetected {
				sawTorn = true
			}
		}
	}
	if !sawRedo {
		t.Error("no kill ever recovered through a non-empty redo window")
	}
	if !sawTorn {
		t.Error("no torn tail was ever detected and cut")
	}
	// RDS recovers in place (epoch stays 1); CDB4 promotes on the first RW
	// kill (epoch advances). Both architectures' reports carry the verdicts.
	byKind := map[cdb.Kind]int{}
	for _, r := range results {
		byKind[r.Kind] = int(r.Epoch)
	}
	if byKind[cdb.RDS] != 1 {
		t.Errorf("RDS epoch = %d, want 1 (recover-in-place never advances the lease)", byKind[cdb.RDS])
	}
	if byKind[cdb.CDB4] < 2 {
		t.Errorf("CDB4 epoch = %d, want >= 2 (lease-fenced promotion on the RW kill)", byKind[cdb.CDB4])
	}
	for _, want := range []string{"rds", "cdb4", "durability", "no-resurrection", "Crash schedule"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
