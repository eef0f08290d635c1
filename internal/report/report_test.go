package report

import (
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("TABLE V", "System", "TPS", "Cost")
	tbl.AddRow("AWS RDS", "22092", "$0.0437")
	tbl.AddRow("CDB4", "36995") // short row padded
	out := tbl.String()
	if !strings.Contains(out, "TABLE V") || !strings.Contains(out, "AWS RDS") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("line count = %d:\n%s", len(lines), out)
	}
	// Columns aligned: header and row share the column start offset.
	if strings.Index(lines[1], "TPS") != strings.Index(lines[3], "22092") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		1234567: "1234567",
		42.25:   "42.2",
		1.5:     "1.500",
		0.0001:  "0.00010",
	}
	for in, want := range cases {
		if got := F(in); got != want {
			t.Errorf("F(%v) = %q, want %q", in, got, want)
		}
	}
	if Money(0.0437) != "$0.0437" {
		t.Errorf("Money: %q", Money(0.0437))
	}
	if Money(0.000025) != "$0.000025" {
		t.Errorf("Money small: %q", Money(0.000025))
	}
	durCases := map[time.Duration]string{
		0:                       "0",
		1500 * time.Microsecond: "1.5ms",
		177 * time.Millisecond:  "177.0ms",
		3500 * time.Millisecond: "3.5s",
		24 * time.Second:        "24s",
		900 * time.Microsecond:  "0.90ms",
	}
	for in, want := range durCases {
		if got := Dur(in); got != want {
			t.Errorf("Dur(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestSeriesAndBars(t *testing.T) {
	s := Series("cloudybench", []float64{0, 1, 2, 3, 4}, 4)
	if !strings.Contains(s, "cloudybench") || !strings.Contains(s, "max=4") {
		t.Fatalf("series: %q", s)
	}
	// Zero max auto-scales.
	s2 := Series("x", []float64{2, 4}, 0)
	if !strings.Contains(s2, "max=4") {
		t.Fatalf("auto max: %q", s2)
	}
}
