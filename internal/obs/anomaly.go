package obs

import (
	"fmt"
	"time"
)

// Anomaly flags one suspicious window with the virtual timestamp of its
// start — the soak report's "something changed here" markers. Detection is
// pure integer arithmetic over the timeline's window rows, so the same
// timeline always yields the same anomalies in the same order.
type Anomaly struct {
	At     time.Duration // window start
	Window int
	Kind   string // "p99-regression", "throughput-collapse", "unavailability"
	Detail string
}

// The window-over-window detectors' thresholds.
const (
	// anomalyMinTxns is the per-window sample floor below which p99
	// comparisons are skipped (quantiles over a handful of samples are
	// noise, not regressions).
	anomalyMinTxns = 20
	// anomalyP99Factor flags window w when p99(w) > anomalyP99Factor ×
	// p99(w-1), both windows above the sample floor. Histogram buckets are
	// ~6% wide, so a 3× jump is far outside quantization error.
	anomalyP99Factor = 3
	// anomalyCollapseFactor flags window w when commits(w) ×
	// anomalyCollapseFactor < commits(w-1) while w still has traffic.
	anomalyCollapseFactor = 4
	// anomalyMinCommits is the prior-window commit floor for collapse and
	// unavailability detection: a window can only collapse or black out
	// relative to a predecessor that had real traffic.
	anomalyMinCommits = 20
)

// Anomalies runs the window-over-window detectors across the timeline:
//
//   - unavailability: a window with zero commits after any window that had
//     at least anomalyMinCommits (the service was demonstrably up, then
//     served nothing for a full window);
//   - throughput-collapse: commits fell by more than anomalyCollapseFactor×
//     from the previous window but did not reach zero;
//   - p99-regression: the window's p99 rose by more than anomalyP99Factor×
//     over the previous window, with both windows above the sample floor.
//
// A window reports at most one anomaly, checked in the order above
// (blackout subsumes collapse subsumes a meaningless p99). Comparisons are
// against the immediately preceding window, so a slow drift never alerts —
// only step changes, which is what injected faults and real incidents look
// like.
func (tl *Timeline) Anomalies() []Anomaly {
	rows := tl.Rows()
	var out []Anomaly
	var seenTraffic bool
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1], rows[i]
		if prev.Commits >= anomalyMinCommits {
			seenTraffic = true
		}
		switch {
		case seenTraffic && cur.Txns > 0 && cur.Commits == 0:
			out = append(out, Anomaly{
				At: cur.Start, Window: cur.Index, Kind: "unavailability",
				Detail: fmt.Sprintf("%d attempts, 0 commits (prev window %d)", cur.Txns, prev.Commits),
			})
		case prev.Commits >= anomalyMinCommits && cur.Commits > 0 &&
			cur.Commits*anomalyCollapseFactor < prev.Commits:
			out = append(out, Anomaly{
				At: cur.Start, Window: cur.Index, Kind: "throughput-collapse",
				Detail: fmt.Sprintf("commits %d -> %d (>%dx drop)", prev.Commits, cur.Commits, anomalyCollapseFactor),
			})
		case prev.Txns >= anomalyMinTxns && cur.Txns >= anomalyMinTxns &&
			prev.P99 > 0 && cur.P99 > anomalyP99Factor*prev.P99:
			out = append(out, Anomaly{
				At: cur.Start, Window: cur.Index, Kind: "p99-regression",
				Detail: fmt.Sprintf("p99 %v -> %v (>%dx)", prev.P99, cur.P99, anomalyP99Factor),
			})
		}
	}
	return out
}
