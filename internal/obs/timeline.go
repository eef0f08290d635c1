package obs

import (
	"fmt"
	"sort"
	"time"

	"cloudybench/internal/meter"
)

// Timeline is the longitudinal companion to StageAgg: the same mergeable
// log-linear histograms and outcome counters, bucketed into fixed-width
// windows of virtual time. It implements Sink, so attaching it to a Tracer
// costs one histogram insert per span at trace-finish time and nothing on
// the span hot path.
//
// Memory is O(windows × distinct (txn, kind) labels) — independent of how
// many transactions a run commits — which is what makes days-long soak runs
// observable without retaining days of samples. Window boundaries are pure
// integer division on the virtual clock (window i covers
// [i·width, (i+1)·width)), so two runs of the same seed fill identical
// windows regardless of GOMAXPROCS.
//
// A trace lands in the window of its End time: a transaction straddling a
// boundary is attributed — spans included — to the window that observed it
// complete. That keeps every counter consistent with the per-window commit
// counts (a commit is counted where it happened) at the cost of edge spans
// leaning into the completion window; with soak windows orders of magnitude
// longer than transactions, the lean is negligible and, more importantly,
// deterministic.
type Timeline struct {
	sut     string
	width   time.Duration
	windows map[int]*StageAgg
	marks   []Mark
}

// Mark is a point event stamped onto the timeline at a virtual timestamp:
// an invariant sweep verdict, an injected fault, a detected anomaly, or any
// phase annotation the runner wants in the rendered artifact.
type Mark struct {
	At     time.Duration
	Kind   string // "sweep", "chaos", "anomaly", "phase", ...
	Detail string
	// Pass carries a sweep's verdict (true for non-judging marks).
	Pass bool
}

// NewTimeline returns an empty timeline for the given SUT label with the
// given window width. Width must be positive.
func NewTimeline(sut string, width time.Duration) *Timeline {
	if width <= 0 {
		panic(fmt.Sprintf("obs: timeline width %v must be positive", width))
	}
	return &Timeline{
		sut:     sut,
		width:   width,
		windows: make(map[int]*StageAgg),
	}
}

// WindowIndex maps a virtual timestamp to its window index.
func (tl *Timeline) WindowIndex(at time.Duration) int {
	if at < 0 {
		return 0
	}
	return int(at / tl.width)
}

// WindowStart returns the virtual start time of window i.
func (tl *Timeline) WindowStart(i int) time.Duration {
	return time.Duration(i) * tl.width
}

func (tl *Timeline) window(i int) *StageAgg {
	w := tl.windows[i]
	if w == nil {
		w = NewStageAgg(tl.sut)
		tl.windows[i] = w
	}
	return w
}

// Emit implements Sink: the trace's end-to-end duration, outcome, and every
// span land in the window of its End time. Traces with an empty Outcome are
// background activities (RecordBG single-span traces): their spans are
// bucketed but they carry no end-to-end transaction sample, exactly as a
// Tracer feeds its StageAgg.
func (tl *Timeline) Emit(tr *Trace) {
	w := tl.window(tl.WindowIndex(tr.End))
	if tr.Outcome != "" {
		w.addTrace(tr)
	}
	for _, sp := range tr.Spans {
		w.addSpan(tr.Txn, sp.Kind, sp.End-sp.Start)
	}
}

// Mark stamps a point event onto the timeline.
func (tl *Timeline) Mark(at time.Duration, kind, detail string, pass bool) {
	tl.marks = append(tl.marks, Mark{At: at, Kind: kind, Detail: detail, Pass: pass})
}

// Marks returns every stamped event sorted by (At, Kind, Detail) — the
// deterministic render order regardless of stamping order.
func (tl *Timeline) Marks() []Mark {
	out := make([]Mark, len(tl.marks))
	copy(out, tl.marks)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}

// WindowIndexes returns the indexes of every populated window, sorted.
func (tl *Timeline) WindowIndexes() []int {
	out := make([]int, 0, len(tl.windows))
	for i := range tl.windows {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// WindowRow summarizes one window: transaction outcome counts plus the
// latency quantiles of the window's merged end-to-end histogram.
type WindowRow struct {
	Index      int
	Start, End time.Duration
	// Txns counts finished transactions (all outcomes); Commits and Errors
	// split it by outcome ("commit" vs everything else).
	Txns    int64
	Commits int64
	Errors  int64
	P50     time.Duration
	P99     time.Duration
	// Throughput is commits per second of window width.
	Throughput float64
}

// Row summarizes window i (the zero WindowRow for an untouched window, so
// gaps render as explicit dead air rather than vanishing).
func (tl *Timeline) Row(i int) WindowRow {
	row := WindowRow{Index: i, Start: tl.WindowStart(i), End: tl.WindowStart(i + 1)}
	w := tl.windows[i]
	if w == nil {
		return row
	}
	// Integer counts and histogram buckets sum the same in any order.
	var all meter.Histogram
	for _, t := range w.txns {
		all.Merge(&t.hist)
		for o, n := range t.outcomes {
			row.Txns += n
			if o == "commit" {
				row.Commits += n
			} else {
				row.Errors += n
			}
		}
	}
	row.P50 = all.Quantile(0.50)
	row.P99 = all.Quantile(0.99)
	row.Throughput = float64(row.Commits) / tl.width.Seconds()
	return row
}

// Rows summarizes every window from index 0 through the last populated one,
// including empty gaps — the contiguous per-window table the soak artifact
// renders.
func (tl *Timeline) Rows() []WindowRow {
	idx := tl.WindowIndexes()
	if len(idx) == 0 {
		return nil
	}
	last := idx[len(idx)-1]
	out := make([]WindowRow, 0, last+1)
	for i := 0; i <= last; i++ {
		out = append(out, tl.Row(i))
	}
	return out
}

// Aggregate collapses the whole timeline into a StageAgg — the whole-run
// view: the windows merged. Feeding the same trace stream to a Timeline
// and to a StageAgg (via a Tracer) yields Aggregate() equal to the
// tracer's Agg() bucket-for-bucket; timeline_test.go holds that as a
// property.
func (tl *Timeline) Aggregate() *StageAgg {
	agg := NewStageAgg(tl.sut)
	for _, w := range tl.windows {
		agg.Merge(w)
	}
	return agg
}
