package obs

import (
	"sort"
	"time"

	"cloudybench/internal/meter"
)

// stageKey indexes one stage accumulator: a transaction type (or background
// activity) crossed with a span kind.
type stageKey struct {
	txn  string
	kind Kind
}

// txnAgg accumulates one transaction type's end-to-end latencies and
// outcomes.
type txnAgg struct {
	hist     meter.Histogram
	outcomes map[string]int64
}

// StageAgg is the per-(SUT, op name, span-kind) stage-breakdown
// accumulator: a duration histogram per stage plus end-to-end transaction
// histograms, the data behind the "virtual flame" table and the Prometheus
// snapshot. All state is integer-bucketed and keyed deterministically, so
// two runs of the same seed aggregate to identical values regardless of
// GOMAXPROCS.
type StageAgg struct {
	sut   string
	spans map[stageKey]*meter.Histogram
	txns  map[string]*txnAgg
}

// NewStageAgg returns an empty aggregation for the given SUT label.
func NewStageAgg(sut string) *StageAgg {
	return &StageAgg{
		sut:   sut,
		spans: make(map[stageKey]*meter.Histogram),
		txns:  make(map[string]*txnAgg),
	}
}

// SUT returns the aggregation's system-under-test label.
func (a *StageAgg) SUT() string { return a.sut }

func (a *StageAgg) addSpan(txn string, kind Kind, d time.Duration) {
	k := stageKey{txn: txn, kind: kind}
	h := a.spans[k]
	if h == nil {
		h = &meter.Histogram{}
		a.spans[k] = h
	}
	h.Add(d)
}

func (a *StageAgg) addTrace(tr *Trace) {
	t := a.txns[tr.Txn]
	if t == nil {
		t = &txnAgg{outcomes: make(map[string]int64)}
		a.txns[tr.Txn] = t
	}
	t.hist.Add(tr.Duration())
	t.outcomes[tr.Outcome]++
}

// AddSpan records one span duration directly (tests and external feeders).
func (a *StageAgg) AddSpan(txn string, kind Kind, d time.Duration) {
	a.addSpan(txn, kind, d)
}

// Merge folds o into a stage-for-stage (e.g. combining replicas' tracers).
func (a *StageAgg) Merge(o *StageAgg) {
	if o == nil {
		return
	}
	for k, h := range o.spans {
		dst := a.spans[k]
		if dst == nil {
			dst = &meter.Histogram{}
			a.spans[k] = dst
		}
		dst.Merge(h)
	}
	for txn, t := range o.txns {
		dst := a.txns[txn]
		if dst == nil {
			dst = &txnAgg{outcomes: make(map[string]int64)}
			a.txns[txn] = dst
		}
		dst.hist.Merge(&t.hist)
		for o, n := range t.outcomes {
			dst.outcomes[o] += n
		}
	}
}

// Equal reports whether two aggregations hold identical state: the same
// (txn, kind) span histograms bucket-for-bucket and the same end-to-end
// transaction histograms and outcome counts. SUT labels are not compared —
// equality is about the recorded data, not the name on the folder.
func (a *StageAgg) Equal(o *StageAgg) bool {
	if a == nil || o == nil {
		return a == nil && o == nil
	}
	if len(a.spans) != len(o.spans) || len(a.txns) != len(o.txns) {
		return false
	}
	for k, h := range a.spans {
		if !h.Equal(o.spans[k]) {
			return false
		}
	}
	for txn, t := range a.txns {
		ot := o.txns[txn]
		if ot == nil || !t.hist.Equal(&ot.hist) {
			return false
		}
		if len(t.outcomes) != len(ot.outcomes) {
			return false
		}
		for oc, n := range t.outcomes {
			if ot.outcomes[oc] != n {
				return false
			}
		}
	}
	return true
}

// StageRow is one rendered line of the stage breakdown: how much of a
// transaction type's virtual time one span kind consumed.
type StageRow struct {
	SUT   string
	Txn   string
	Kind  Kind
	Count int64
	Total time.Duration
	// Share is Total divided by the transaction type's summed end-to-end
	// virtual time (zero for background activities, which have no
	// transaction total to take a share of). Shares of nested spans
	// overlap, so a column can exceed its parent and rows need not sum
	// to 100%.
	Share         float64
	P50, P95, P99 time.Duration
}

// TxnRow is one transaction type's end-to-end latency summary.
type TxnRow struct {
	SUT           string
	Txn           string
	Count         int64
	Total         time.Duration
	P50, P95, P99 time.Duration
	Outcomes      map[string]int64
}

// Rows returns the stage breakdown sorted by (txn, kind) — deterministic
// render order.
func (a *StageAgg) Rows() []StageRow {
	keys := make([]stageKey, 0, len(a.spans))
	for k := range a.spans {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].txn != keys[j].txn {
			return keys[i].txn < keys[j].txn
		}
		return keys[i].kind < keys[j].kind
	})
	out := make([]StageRow, 0, len(keys))
	for _, k := range keys {
		h := a.spans[k]
		row := StageRow{
			SUT: a.sut, Txn: k.txn, Kind: k.kind,
			Count: h.Count(), Total: h.Sum(),
			P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		}
		if t := a.txns[k.txn]; t != nil && t.hist.Sum() > 0 {
			row.Share = float64(h.Sum()) / float64(t.hist.Sum())
		}
		out = append(out, row)
	}
	return out
}

// TxnRows returns the end-to-end transaction summaries sorted by txn label.
func (a *StageAgg) TxnRows() []TxnRow {
	names := make([]string, 0, len(a.txns))
	for n := range a.txns {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]TxnRow, 0, len(names))
	for _, n := range names {
		t := a.txns[n]
		out = append(out, TxnRow{
			SUT: a.sut, Txn: n,
			Count: t.hist.Count(), Total: t.hist.Sum(),
			P50: t.hist.Quantile(0.50), P95: t.hist.Quantile(0.95), P99: t.hist.Quantile(0.99),
			Outcomes: t.outcomes,
		})
	}
	return out
}
