// Package report renders experiment results as the paper's tables and
// figures: aligned text tables for Tables V–IX and ASCII series for the
// figures. All renderers write plain text suitable for terminals and
// for EXPERIMENTS.md code blocks.
package report

import (
	"fmt"
	"strings"
	"time"
)

// Table is a simple aligned text table builder.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(pad(c, widths[i]))
		}
		b.WriteByte('\n')
	}
	line(t.headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// F formats a float compactly: integers without decimals, large values
// without noise, small values with sensible precision.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.5f", v)
	}
}

// Money formats a dollar amount like the paper's cost columns.
func Money(v float64) string {
	if v >= 0.01 {
		return fmt.Sprintf("$%.4f", v)
	}
	return fmt.Sprintf("$%.6f", v)
}

// Dur formats a duration at millisecond/second granularity like the
// paper's lag and recovery columns.
func Dur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d < 10*time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%.0fs", d.Seconds())
	}
}

// Series renders an ASCII line of scaled values — one row of a Figure 9
// style chart. Values are mapped onto height discrete levels using block
// glyphs.
func Series(label string, values []float64, max float64) string {
	if max <= 0 {
		for _, v := range values {
			if v > max {
				max = v
			}
		}
	}
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s|", label)
	for _, v := range values {
		idx := 0
		if max > 0 {
			idx = int(v / max * float64(len(glyphs)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		b.WriteRune(glyphs[idx])
	}
	fmt.Fprintf(&b, "| max=%s", F(max))
	return b.String()
}
