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
// windows regardless of GOMAXPROCS, and timelines from different runs (or
// different replicas' tracers) merge window-for-window, bucket-for-bucket.
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
	windows map[int]*timelineWindow
	marks   []Mark
}

// timelineWindow mirrors StageAgg's internals for one window of virtual
// time: per-(txn, kind) span histograms plus per-txn end-to-end histograms
// and outcome counters.
type timelineWindow struct {
	spans map[stageKey]*meter.Histogram
	txns  map[string]*txnAgg
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
		windows: make(map[int]*timelineWindow),
	}
}

// SUT returns the timeline's system-under-test label.
func (tl *Timeline) SUT() string { return tl.sut }

// Width returns the window width.
func (tl *Timeline) Width() time.Duration { return tl.width }

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

func (tl *Timeline) window(i int) *timelineWindow {
	w := tl.windows[i]
	if w == nil {
		w = &timelineWindow{
			spans: make(map[stageKey]*meter.Histogram),
			txns:  make(map[string]*txnAgg),
		}
		tl.windows[i] = w
	}
	return w
}

// Emit implements Sink: the trace's end-to-end duration, outcome, and every
// span land in the window of its End time. Traces with an empty Outcome are
// background activities (RecordBG single-span traces): their spans are
// bucketed but they carry no end-to-end transaction sample, exactly
// mirroring StageAgg's split between addSpan and addTrace.
func (tl *Timeline) Emit(tr *Trace) {
	w := tl.window(tl.WindowIndex(tr.End))
	if tr.Outcome != "" {
		t := w.txns[tr.Txn]
		if t == nil {
			t = &txnAgg{outcomes: make(map[string]int64)}
			w.txns[tr.Txn] = t
		}
		t.hist.Add(tr.Duration())
		t.outcomes[tr.Outcome]++
	}
	for _, sp := range tr.Spans {
		k := stageKey{txn: tr.Txn, kind: sp.Kind}
		h := w.spans[k]
		if h == nil {
			h = &meter.Histogram{}
			w.spans[k] = h
		}
		h.Add(sp.End - sp.Start)
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
	var all meter.Histogram
	for _, txn := range sortedTxnKeys(w.txns) {
		t := w.txns[txn]
		all.Merge(&t.hist)
		for _, o := range sortedOutcomeKeys(t.outcomes) {
			n := t.outcomes[o]
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

// Merge folds o into tl window-for-window, bucket-for-bucket, and appends
// its marks. Widths and SUT labels must match — merging timelines with
// different window widths would silently misalign every boundary.
func (tl *Timeline) Merge(o *Timeline) {
	if o == nil {
		return
	}
	if o.width != tl.width {
		panic(fmt.Sprintf("obs: merging timelines with different widths (%v vs %v)", tl.width, o.width))
	}
	for _, i := range o.WindowIndexes() {
		src := o.windows[i]
		dst := tl.window(i)
		for _, k := range sortedStageKeys(src.spans) {
			h := dst.spans[k]
			if h == nil {
				h = &meter.Histogram{}
				dst.spans[k] = h
			}
			h.Merge(src.spans[k])
		}
		for _, txn := range sortedTxnKeys(src.txns) {
			st := src.txns[txn]
			dt := dst.txns[txn]
			if dt == nil {
				dt = &txnAgg{outcomes: make(map[string]int64)}
				dst.txns[txn] = dt
			}
			dt.hist.Merge(&st.hist)
			for _, o := range sortedOutcomeKeys(st.outcomes) {
				dt.outcomes[o] += st.outcomes[o]
			}
		}
	}
	tl.marks = append(tl.marks, o.marks...)
}

// Aggregate collapses the whole timeline into a StageAgg — the whole-run
// view. Because both structures share the same histogram buckets and keys,
// feeding the same trace stream to a Timeline and to a StageAgg (via a
// Tracer) yields Aggregate() equal to the tracer's Agg() bucket-for-bucket;
// timeline_test.go holds that as a property.
func (tl *Timeline) Aggregate() *StageAgg {
	agg := NewStageAgg(tl.sut)
	for _, i := range tl.WindowIndexes() {
		w := tl.windows[i]
		for _, k := range sortedStageKeys(w.spans) {
			h := agg.spans[k]
			if h == nil {
				h = &meter.Histogram{}
				agg.spans[k] = h
			}
			h.Merge(w.spans[k])
		}
		for _, txn := range sortedTxnKeys(w.txns) {
			t := w.txns[txn]
			dst := agg.txns[txn]
			if dst == nil {
				dst = &txnAgg{outcomes: make(map[string]int64)}
				agg.txns[txn] = dst
			}
			dst.hist.Merge(&t.hist)
			for _, o := range sortedOutcomeKeys(t.outcomes) {
				dst.outcomes[o] += t.outcomes[o]
			}
		}
	}
	return agg
}

func sortedStageKeys(m map[stageKey]*meter.Histogram) []stageKey {
	keys := make([]stageKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].txn != keys[j].txn {
			return keys[i].txn < keys[j].txn
		}
		return keys[i].kind < keys[j].kind
	})
	return keys
}

func sortedTxnKeys(m map[string]*txnAgg) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedOutcomeKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
