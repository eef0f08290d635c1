package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestTracerTxnLifecycle(t *testing.T) {
	var sink CountSink
	tr := NewTracer("rds", &sink)
	key := new(int) // any pointer identity works as a process key

	tr.StartTxn(key, "T1", ms(10))
	tr.SetNode(key, "rds/rw")
	tr.Record(key, KindCPU, ms(10), ms(12))
	tr.Record(key, KindWALAppend, ms(12), ms(13))
	tr.Record(key, KindCPU, ms(13), ms(13)) // zero-length: dropped
	tr.FinishTxn(key, "commit", ms(14))

	if sink.Traces != 1 || sink.Spans != 2 {
		t.Fatalf("sink saw %d traces / %d spans, want 1/2", sink.Traces, sink.Spans)
	}
	rows := tr.Agg().Rows()
	if len(rows) != 2 {
		t.Fatalf("agg rows = %d, want 2", len(rows))
	}
	if rows[0].Txn != "T1" || rows[0].Kind != KindCPU || rows[0].Count != 1 || rows[0].Total != ms(2) {
		t.Fatalf("cpu row = %+v", rows[0])
	}
	// Share: cpu 2ms of a 4ms transaction = 50%.
	if rows[0].Share != 0.5 {
		t.Fatalf("cpu share = %v, want 0.5", rows[0].Share)
	}
	txns := tr.Agg().TxnRows()
	if len(txns) != 1 || txns[0].Count != 1 || txns[0].Total != ms(4) || txns[0].Outcomes["commit"] != 1 {
		t.Fatalf("txn row = %+v", txns[0])
	}
}

func TestTracerBackgroundFallback(t *testing.T) {
	var sink CountSink
	tr := NewTracer("cdb1", &sink)
	key := new(int)

	// Record with no open trace lands on the "bg" activity.
	tr.Record(key, KindNetHop, ms(0), ms(1))
	// Named background activity.
	tr.RecordBG("checkpoint", KindCheckpointStall, "cdb1/rw", ms(5), ms(9))

	rows := tr.Agg().Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Txn != "bg" || rows[0].Kind != KindNetHop {
		t.Fatalf("bg row = %+v", rows[0])
	}
	if rows[1].Txn != "checkpoint" || rows[1].Total != ms(4) {
		t.Fatalf("checkpoint row = %+v", rows[1])
	}
	// Background rows carry no share (no enclosing transaction).
	if rows[0].Share != 0 || rows[1].Share != 0 {
		t.Fatal("background spans must have zero share")
	}
	if sink.Traces != 2 {
		t.Fatalf("sink traces = %d, want 2 (one per background span)", sink.Traces)
	}
}

func TestNilTracerIsSafeAndFree(t *testing.T) {
	var tr *Tracer
	key := new(int)
	tr.StartTxn(key, "T1", 0)
	tr.SetNode(key, "n")
	tr.Record(key, KindCPU, 0, ms(1))
	tr.RecordBG("bg", KindCPU, "", 0, ms(1))
	tr.FinishTxn(key, "commit", ms(1))
	if tr.Agg() != nil {
		t.Fatal("nil tracer accessors must return zero values")
	}
	allocs := testing.AllocsPerRun(100, func() {
		tr.Record(key, KindCPU, 0, ms(1))
	})
	if allocs != 0 {
		t.Fatalf("nil tracer Record allocates %v per op, want 0", allocs)
	}
}

func TestJSONLSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	tr := NewTracer("cdb3", sink)
	key := new(int)
	tr.StartTxn(key, "T2", ms(1))
	tr.SetNode(key, "cdb3/rw")
	tr.Record(key, KindLockWait, ms(1), ms(3))
	tr.FinishTxn(key, "commit", ms(4))
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("lines = %d, want 1", len(lines))
	}
	var got struct {
		ID      uint64  `json:"id"`
		SUT     string  `json:"sut"`
		Txn     string  `json:"txn"`
		Node    string  `json:"node"`
		Start   float64 `json:"start_us"`
		End     float64 `json:"end_us"`
		Outcome string  `json:"outcome"`
		Spans   []struct {
			Kind    string  `json:"kind"`
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatalf("line is not valid JSON: %v", err)
	}
	if got.ID != 1 || got.SUT != "cdb3" || got.Txn != "T2" || got.Node != "cdb3/rw" || got.Outcome != "commit" {
		t.Fatalf("trace line = %+v", got)
	}
	if got.Start != 1000 || got.End != 4000 {
		t.Fatalf("times = %v..%v µs, want 1000..4000", got.Start, got.End)
	}
	if len(got.Spans) != 1 || got.Spans[0].Kind != "lock-wait" || got.Spans[0].StartUS != 1000 || got.Spans[0].EndUS != 3000 {
		t.Fatalf("spans = %+v", got.Spans)
	}
}

func TestWritePrometheusDeterministicAndParsable(t *testing.T) {
	build := func() *StageAgg {
		a := NewStageAgg("rds")
		// Insert in scrambled order; output must still be sorted.
		a.AddSpan("T2", KindPageRead, ms(3))
		a.AddSpan("T1", KindCPU, ms(1))
		a.AddSpan("T1", KindCPU, ms(2))
		tr := &Trace{Txn: "T1", Start: 0, End: ms(5), Outcome: "commit"}
		a.addTrace(tr)
		a.addTrace(&Trace{Txn: "T2", Start: 0, End: ms(7), Outcome: "error"})
		return a
	}
	var b1, b2 bytes.Buffer
	if err := WritePrometheus(&b1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b2, build()); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("two renders of the same aggregation differ")
	}
	out := b1.String()
	for _, want := range []string{
		`cloudybench_span_virtual_seconds{sut="rds",txn="T1",kind="cpu",quantile="0.5"}`,
		`cloudybench_span_virtual_seconds_count{sut="rds",txn="T1",kind="cpu"} 2`,
		`cloudybench_txn_virtual_seconds_count{sut="rds",txn="T2"} 1`,
		`cloudybench_txn_outcomes_total{sut="rds",txn="T1",outcome="commit"} 1`,
		`# TYPE cloudybench_span_virtual_seconds summary`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("snapshot missing %q\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value".
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, "} ") || !strings.HasPrefix(line, "cloudybench_") {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
}

func TestStageAggMerge(t *testing.T) {
	a := NewStageAgg("cdb2")
	b := NewStageAgg("cdb2")
	a.AddSpan("T1", KindCPU, ms(1))
	b.AddSpan("T1", KindCPU, ms(3))
	b.AddSpan("T3", KindPageRead, ms(2))
	b.addTrace(&Trace{Txn: "T3", Start: 0, End: ms(2), Outcome: "commit"})
	a.Merge(b)
	rows := a.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if rows[0].Count != 2 || rows[0].Total != ms(4) {
		t.Fatalf("merged cpu row = %+v", rows[0])
	}
	if got := a.TxnRows(); len(got) != 1 || got[0].Outcomes["commit"] != 1 {
		t.Fatalf("merged txn rows = %+v", got)
	}
}
