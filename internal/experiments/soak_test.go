package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudybench/internal/evaluator"
)

// checkGolden pins one rendered report or artifact byte for byte against
// testdata/<name>.golden (-update rewrites it).
func checkGolden(t *testing.T, name, out string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if out != string(want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, out, want)
	}
}

// TestSoakGolden pins the full comparison artifact — the Markdown document
// and the flat CSV — byte for byte at the mini scale. These are the files
// `cloudybench run soak -artifacts` ships, so any drift in a window row,
// sweep verdict, anomaly timestamp, or cost figure is a behaviour change.
// Regenerate deliberately with -update.
func TestSoakGolden(t *testing.T) {
	sess := shared(t, mini)
	results := read(sess.soakCells)
	sc := mini
	sc.ArtifactDir = t.TempDir()
	// A session over the shared memo that writes into the temporary directory.
	md, err := Soak(&Session{sc: sc, cells: sess.cells})
	if err != nil {
		t.Fatal(err)
	}

	csv, err := os.ReadFile(filepath.Join(sc.ArtifactDir, "soak.csv"))
	if err != nil {
		t.Fatal(err)
	}
	diskMD, err := os.ReadFile(filepath.Join(sc.ArtifactDir, "soak.md"))
	if err != nil {
		t.Fatal(err)
	}
	// The returned document is the written soak.md plus the footer line
	// naming the (temp, non-deterministic) directory; golden only the
	// stable parts.
	if !strings.HasPrefix(md, string(diskMD)) {
		t.Fatal("returned markdown does not start with the written soak.md")
	}
	checkGolden(t, "soak_md", string(diskMD))
	checkGolden(t, "soak_csv", string(csv))

	if len(results) != len(SUTs) {
		t.Fatalf("results = %d, want %d", len(results), len(SUTs))
	}
	for _, r := range results {
		if !r.Passed() {
			t.Errorf("%s soak verdicts failed", r.Kind)
		}
	}
}

// TestSoakExperimentShape is the fast structural smoke (the CI race-job
// entry point): every SUT completes three virtual days, every sweep passes,
// and each SUT's seeded blackout anomalies land at the same deterministic
// virtual timestamps.
func TestSoakExperimentShape(t *testing.T) {
	sess := shared(t, tiny)
	results := read(sess.soakCells)
	out, err := Soak(sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(SUTs) {
		t.Fatalf("results = %d, want %d", len(results), len(SUTs))
	}
	wpd := int(24 * time.Hour / tiny.SoakWindow)
	for _, r := range results {
		if !r.Passed() {
			t.Errorf("%s: soak invariants failed", r.Kind)
		}
		if r.Days != tiny.SoakDays || len(r.Windows) != tiny.SoakDays*wpd {
			t.Fatalf("%s: %d windows over %d days", r.Kind, len(r.Windows), r.Days)
		}
		// Every SUT sees the same blackout schedule: the last window of each
		// day must be flagged unavailable.
		flagged := map[int]string{}
		for _, a := range r.Anomalies {
			flagged[a.Window] = a.Kind
		}
		for d := 0; d < r.Days; d++ {
			w := d*wpd + wpd - 1
			if flagged[w] != "unavailability" {
				t.Errorf("%s: window %d flagged %q, want unavailability (anomalies %+v)",
					r.Kind, w, flagged[w], r.Anomalies)
			}
		}
	}
	for _, want := range []string{
		"# CloudyBench soak", "## rds", "## cdb4",
		"### In-flight invariant sweeps", "### Anomalies", "### Chaos log",
		"## Cost efficiency", "RUC per 1k transactions",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("soak artifact missing %q", want)
		}
	}
	// No artifact dir: nothing may have been written anywhere.
	if strings.Contains(out, "Wrote soak.csv") {
		t.Fatal("file footer present without ArtifactDir")
	}
	var _ []evaluator.SoakResult = results
}
