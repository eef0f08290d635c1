// Package obs is CloudyBench's virtual-clock-native observability layer:
// per-transaction traces with typed spans opened and closed at virtual
// timestamps, deterministic stage-level aggregation, and exposition as
// JSONL span files plus a Prometheus-text-format snapshot.
//
// The package is deliberately dependency-free of the substrate it observes
// (node, netsim, storage, replication, cluster): instrumented packages hold
// a *Tracer and report spans through it, in the same spirit as the engine's
// Observer hook. Three rules keep observability from perturbing the
// simulation it measures:
//
//  1. Zero cost by default. A nil *Tracer is the off switch: every method
//     is nil-receiver safe and returns immediately, so the hot path pays
//     one predictable branch and allocates nothing (bench_test.go guards
//     this with a benchmark).
//  2. No virtual-time side effects. Recording a span never sleeps, blocks,
//     or schedules: the tracer only reads the virtual clock and appends to
//     plain Go data structures, so a run with tracing attached replays the
//     exact event order of a run without it.
//  3. Deterministic exposition. Trace IDs are assigned in the DES dispatch
//     order (which is seed-stable), histograms are integer-bucketed, and
//     every rendered view iterates keys in sorted order — identical bytes
//     across runs and GOMAXPROCS settings.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Kind types a span: where a slice of a transaction's virtual time went.
type Kind uint8

// Span kinds, covering the request path of every SUT architecture.
const (
	KindCPU             Kind = iota // engine CPU occupancy (stretched by vCore allocation)
	KindLockWait                    // blocked on a row lock held by another transaction
	KindLatch                       // blocked on an IO-in-progress page latch
	KindPageRead                    // buffer miss: fetching a page from the backend
	KindPageWrite                   // page modification miss + dirty writeback
	KindWALAppend                   // commit durability: WAL append/ship + ack
	KindNetHop                      // wire time on a simulated network link
	KindStorageReplay               // redo replay (replica lanes, restart recovery)
	KindReplicationShip             // shipping committed records toward replicas
	KindCheckpointStall             // page IO stalled behind an active checkpoint
	KindFaultRetry                  // client backoff after a fault-rejected request
	KindBreakerOpen                 // a per-node circuit breaker held open (fail-fast window)
	KindReroute                     // a read served by a fallback node after reroute-on-open
	numKinds
)

var kindNames = [numKinds]string{
	"cpu", "lock-wait", "latch", "page-read", "page-write", "wal-append",
	"net-hop", "storage-replay", "replication-ship", "checkpoint-stall",
	"fault-retry", "breaker-open", "reroute",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// Span is one closed interval of virtual time attributed to a kind. Detail
// is optional context (a fail-over phase name, a fault label); hot-path
// spans leave it empty to stay allocation-light.
type Span struct {
	Kind   Kind          `json:"-"`
	Start  time.Duration `json:"start_us"`
	End    time.Duration `json:"end_us"`
	Detail string        `json:"detail,omitempty"`
}

// spanJSON is the wire form: kind as its string name, times in microseconds.
type spanJSON struct {
	Kind   string  `json:"kind"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Detail string  `json:"detail,omitempty"`
}

// Trace is one transaction's (or one background activity's) span log.
type Trace struct {
	ID      uint64
	SUT     string
	Txn     string // T1..T4 label, or a background activity name
	Node    string // node that served it (set at Begin; empty for background)
	Start   time.Duration
	End     time.Duration
	Outcome string // "commit", "abort", "error" (empty for background)
	Spans   []Span
}

// Duration returns the trace's total virtual time.
func (t *Trace) Duration() time.Duration { return t.End - t.Start }

// Sink receives finished traces. Emit is called inline on simulation
// processes, so implementations must not block in virtual time (file and
// buffer writes are wall-clock side effects and are fine).
type Sink interface {
	Emit(tr *Trace)
}

// Tracer collects spans for one SUT run. Create with NewTracer and attach
// via the instrumented packages' Tracer fields; a nil *Tracer disables all
// collection at zero cost.
type Tracer struct {
	sut    string
	sink   Sink
	agg    *StageAgg
	active map[any]*Trace
	nextID uint64
}

// NewTracer returns a tracer labeling everything it records with the given
// SUT name. sink may be nil to aggregate without streaming traces.
func NewTracer(sut string, sink Sink) *Tracer {
	return &Tracer{
		sut:    sut,
		sink:   sink,
		agg:    NewStageAgg(sut),
		active: make(map[any]*Trace),
	}
}

// Agg returns the tracer's stage aggregation (nil for a nil tracer).
func (t *Tracer) Agg() *StageAgg {
	if t == nil {
		return nil
	}
	return t.agg
}

// StartTxn opens a per-transaction trace for the process identified by key
// (by convention the *sim.Proc executing it). Spans recorded under the same
// key until FinishTxn attach to this trace. The simulation kernel's
// single-runnable discipline makes the unlocked map safe.
func (t *Tracer) StartTxn(key any, txn string, at time.Duration) {
	if t == nil {
		return
	}
	t.nextID++
	t.active[key] = &Trace{ID: t.nextID, SUT: t.sut, Txn: txn, Start: at}
}

// SetNode labels the active trace with the node serving it (fail-over can
// redirect transactions mid-run, so the label is set at Begin time).
func (t *Tracer) SetNode(key any, node string) {
	if t == nil {
		return
	}
	if tr := t.active[key]; tr != nil {
		tr.Node = node
	}
}

// FinishTxn closes the process's active trace with the given outcome,
// aggregates it, and emits it to the sink.
func (t *Tracer) FinishTxn(key any, outcome string, at time.Duration) {
	if t == nil {
		return
	}
	tr := t.active[key]
	if tr == nil {
		return
	}
	delete(t.active, key)
	tr.End = at
	tr.Outcome = outcome
	t.agg.addTrace(tr)
	if t.sink != nil {
		t.sink.Emit(tr)
	}
}

// Record attributes [start, end) of virtual time to the given kind on the
// process's active trace. A process with no open trace (a checkpointer, a
// replication lane) records a background span under the activity label
// "bg". Zero-length spans are dropped.
func (t *Tracer) Record(key any, kind Kind, start, end time.Duration) {
	if t == nil {
		return
	}
	if end <= start {
		return
	}
	if tr := t.active[key]; tr != nil {
		tr.Spans = append(tr.Spans, Span{Kind: kind, Start: start, End: end})
		t.agg.addSpan(tr.Txn, kind, end-start)
		return
	}
	t.RecordBG("bg", kind, "", start, end)
}

// RecordBG records a span on a named background activity (checkpointer,
// replication, fail-over) that is not tied to any client transaction. Each
// background span is emitted as its own single-span trace.
func (t *Tracer) RecordBG(activity string, kind Kind, detail string, start, end time.Duration) {
	if t == nil {
		return
	}
	if end <= start {
		return
	}
	t.agg.addSpan(activity, kind, end-start)
	if t.sink != nil {
		t.nextID++
		t.sink.Emit(&Trace{
			ID: t.nextID, SUT: t.sut, Txn: activity, Start: start, End: end,
			Spans: []Span{{Kind: kind, Start: start, End: end, Detail: detail}},
		})
	}
}

// traceJSON is a Trace's wire form: one JSONL line, durations in
// microseconds of virtual time.
type traceJSON struct {
	ID      uint64     `json:"id"`
	SUT     string     `json:"sut"`
	Txn     string     `json:"txn"`
	Node    string     `json:"node,omitempty"`
	Start   float64    `json:"start_us"`
	End     float64    `json:"end_us"`
	Outcome string     `json:"outcome,omitempty"`
	Spans   []spanJSON `json:"spans"`
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// JSONLSink streams each finished trace as one JSON object per line.
type JSONLSink struct {
	w   io.Writer
	err error
}

// NewJSONLSink returns a sink writing JSON lines to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Emit implements Sink.
func (s *JSONLSink) Emit(tr *Trace) {
	if s.err != nil {
		return
	}
	line := traceJSON{
		ID: tr.ID, SUT: tr.SUT, Txn: tr.Txn, Node: tr.Node,
		Start: usec(tr.Start), End: usec(tr.End), Outcome: tr.Outcome,
		Spans: make([]spanJSON, 0, len(tr.Spans)),
	}
	for _, sp := range tr.Spans {
		line.Spans = append(line.Spans, spanJSON{
			Kind: sp.Kind.String(), Start: usec(sp.Start), End: usec(sp.End),
			Detail: sp.Detail,
		})
	}
	b, err := json.Marshal(line)
	if err != nil {
		s.err = err
		return
	}
	b = append(b, '\n')
	if _, err := s.w.Write(b); err != nil {
		s.err = err
	}
}

// Err returns the first write error the sink hit, if any.
func (s *JSONLSink) Err() error { return s.err }

// CountSink counts traces and spans without retaining them (benchmarks).
type CountSink struct {
	Traces int64
	Spans  int64
}

// Emit implements Sink.
func (c *CountSink) Emit(tr *Trace) {
	c.Traces++
	c.Spans += int64(len(tr.Spans))
}
