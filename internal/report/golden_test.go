package report

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// golden compares rendered output against testdata/<name>.golden, rewriting
// the file when -update is set. Byte-exact comparison: report output feeds
// EXPERIMENTS.md verbatim, so even a drifted space is a real diff.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenTable(t *testing.T) {
	tbl := NewTable("TABLE V: P-SCORE", "System", "TPS", "P99", "Cost/min", "P-Score")
	tbl.AddRow("rds", "22092", "3.1ms", Money(0.0437), F(505542.9))
	tbl.AddRow("cdb1", "30567", "2.4ms", Money(0.0521), F(586699.4))
	tbl.AddRow("cdb4", "36995", "1.9ms", Money(0.0389), F(951028.3))
	tbl.AddRow("cdb3", "28941") // short row exercises padding
	golden(t, "table", tbl.String())
}

func TestGoldenSeries(t *testing.T) {
	out := Series("tps", []float64{0, 120, 480, 950, 1800, 2400, 2390, 2410}, 0) + "\n" +
		Series("cpu%", []float64{5, 20, 45, 60, 88, 97, 96, 95}, 100) + "\n"
	golden(t, "series", out)
}

func TestGoldenFormatters(t *testing.T) {
	// One file pinning every formatter branch, so a precision tweak shows
	// up as a reviewable diff rather than silent churn across all tables.
	var b []byte
	add := func(s string) { b = append(b, s...); b = append(b, '\n') }
	for _, v := range []float64{0, 0.0001, 0.005, 0.01, 1.5, 9.999, 10, 42.25, 999.9, 1000, 1234567} {
		add("F " + F(v))
	}
	for _, v := range []float64{0.000025, 0.0099, 0.01, 0.0437, 12.5} {
		add("M " + Money(v))
	}
	for _, d := range []time.Duration{0, 900 * time.Microsecond, 1500 * time.Microsecond,
		177 * time.Millisecond, 999 * time.Millisecond, time.Second, 3500 * time.Millisecond,
		10 * time.Second, 24 * time.Second, 3 * time.Minute} {
		add("D " + Dur(d))
	}
	golden(t, "formatters", string(b))
}
