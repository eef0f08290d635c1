package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/obs"
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

// fixtureSoak builds a small two-SUT soak result with every row kind
// populated, including CSV-hostile characters in a detail field.
func fixtureSoak() []evaluator.SoakResult {
	w := func(i int, txns, commits, errors int64, p50, p99 time.Duration, cost float64) evaluator.SoakWindow {
		r := evaluator.SoakWindow{
			WindowRow: obs.WindowRow{
				Index: i, Start: time.Duration(i) * 6 * time.Hour,
				End:  time.Duration(i+1) * 6 * time.Hour,
				Txns: txns, Commits: commits, Errors: errors, P50: p50, P99: p99,
				Throughput: float64(commits) / (6 * 3600),
			},
			Cost: cost,
		}
		if commits > 0 {
			r.CostPer1kTxn = cost / float64(commits) * 1000
		}
		return r
	}
	swept := []check.Verdict{{Name: "conservation", Passed: true}, {Name: "read-committed", Passed: true}}
	return []evaluator.SoakResult{
		{
			Kind: cdb.CDB1, Days: 1, Window: 6 * time.Hour,
			Windows: []evaluator.SoakWindow{
				w(0, 120, 118, 2, 3*time.Millisecond, 9*time.Millisecond, 0.041),
				w(1, 130, 126, 4, 4*time.Millisecond, 31*time.Millisecond, 0.052),
				w(2, 125, 124, 1, 3*time.Millisecond, 8*time.Millisecond, 0.043),
				w(3, 40, 0, 40, 0, 0, 0.012),
			},
			Sweeps: []evaluator.SoakSweep{
				{At: 12 * time.Hour, Window: 1, Verdicts: swept},
				{At: 24 * time.Hour, Window: 3, Verdicts: swept},
			},
			Anomalies: []obs.Anomaly{
				{At: 6 * time.Hour, Window: 1, Kind: "p99-regression", Detail: "p99 31ms vs 9ms, \"3.4x\""},
				{At: 18 * time.Hour, Window: 3, Kind: "unavailability", Detail: "40 txns, 0 commits"},
			},
			Applied: []chaos.Applied{
				{At: 6 * time.Hour, Kind: chaos.DiskStall, Target: "rw"},
				{At: 18 * time.Hour, Kind: chaos.Partition},
			},
			Verdicts: []check.Verdict{
				{Name: "no-split-brain", Passed: true, Checked: 7},
				{Name: "convergence(ro0)", Passed: true, Checked: 412},
			},
			Commits: 368, Errors: 7, Terminals: 40, TotalCost: 0.148,
		},
		{
			Kind: cdb.RDS, Days: 1, Window: 6 * time.Hour,
			Windows: []evaluator.SoakWindow{
				w(0, 90, 89, 1, 5*time.Millisecond, 14*time.Millisecond, 0.061),
				w(1, 95, 93, 2, 5*time.Millisecond, 15*time.Millisecond, 0.063),
			},
			Commits: 182, Errors: 3, TotalCost: 0.124,
		},
	}
}

func TestGoldenSoakCSV(t *testing.T) {
	checkGolden(t, "soak_fixture_csv", SoakCSV(fixtureSoak()))
}

func TestGoldenSoakMarkdown(t *testing.T) {
	checkGolden(t, "soak_fixture_md", SoakMarkdown("Soak comparison (fixture)", fixtureSoak()))
}

func TestSoakCSVShape(t *testing.T) {
	out := SoakCSV(fixtureSoak())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	cols := len(strings.Split(lines[0], ","))
	for i, line := range lines {
		// The quoted anomaly detail contains a comma; count fields with a
		// minimal RFC 4180 scan instead of a bare split.
		n, inQ := 1, false
		for _, r := range line {
			switch {
			case r == '"':
				inQ = !inQ
			case r == ',' && !inQ:
				n++
			}
		}
		if n != cols {
			t.Fatalf("line %d has %d fields, want %d: %q", i, n, cols, line)
		}
	}
	// Every row kind made it into the file.
	for _, kind := range []string{"window,", "sweep,", "anomaly,", "chaos,", "verdict,", "total,"} {
		if !strings.Contains(out, "\n"+kind) {
			t.Fatalf("CSV missing %q rows:\n%s", kind, out)
		}
	}
	// The comma-and-quote detail survived quoting.
	if !strings.Contains(out, `"p99-regression: p99 31ms vs 9ms, ""3.4x"""`) {
		t.Fatalf("CSV quoting broken:\n%s", out)
	}
}

func TestSoakMarkdownSections(t *testing.T) {
	out := SoakMarkdown("Soak comparison (fixture)", fixtureSoak())
	for _, want := range []string{
		"## cdb1 — 1 virtual days, 6h0m0s windows",
		"| window | start | txns |",
		"| 3 | d0 18:00 |",
		"### In-flight invariant sweeps",
		"### Anomalies",
		"| d0 18:00 | 3 | unavailability |",
		"### Chaos log",
		"| d0 18:00 | partition | — |",
		"### Final verdicts",
		"- no-split-brain: PASS (7 checked)",
		"## Cost efficiency",
		"RUC per 1k transactions",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
	// The rds result has no sweeps/anomalies/chaos: the renderer says so
	// instead of emitting empty tables.
	if !strings.Contains(out, "None ran.") || !strings.Contains(out, "None detected.") ||
		!strings.Contains(out, "No faults injected.") {
		t.Fatalf("empty sections not rendered:\n%s", out)
	}
}
