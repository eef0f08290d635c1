package obs

import (
	"testing"
	"time"
)

// emitTxn pushes one finished single-span transaction trace through a sink.
func emitTxn(s Sink, txn string, start, end time.Duration, outcome string) {
	s.Emit(&Trace{
		SUT: "t", Txn: txn, Start: start, End: end, Outcome: outcome,
		Spans: []Span{{Kind: KindCPU, Start: start, End: end}},
	})
}

func TestTimelineWindowBoundaries(t *testing.T) {
	tl := NewTimeline("cdb1", time.Second)
	// End stamps at 999ms, 1000ms, and 1999ms: the boundary sample belongs
	// to window 1 ([1s, 2s)), not window 0.
	emitTxn(tl, "T1", ms(900), ms(999), "commit")
	emitTxn(tl, "T1", ms(950), ms(1000), "commit")
	emitTxn(tl, "T1", ms(1900), ms(1999), "error")
	if got := tl.WindowIndexes(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("window indexes = %v, want [0 1]", got)
	}
	r0, r1 := tl.Row(0), tl.Row(1)
	if r0.Commits != 1 || r0.Errors != 0 || r0.Txns != 1 {
		t.Fatalf("window 0 = %+v", r0)
	}
	if r1.Commits != 1 || r1.Errors != 1 || r1.Txns != 2 {
		t.Fatalf("window 1 = %+v", r1)
	}
	if r1.Start != time.Second || r1.End != 2*time.Second {
		t.Fatalf("window 1 bounds = [%v, %v)", r1.Start, r1.End)
	}
	if r0.Throughput != 1 {
		t.Fatalf("window 0 throughput = %v, want 1/s", r0.Throughput)
	}
	// A negative timestamp clamps into window 0 rather than going negative.
	if tl.WindowIndex(-ms(5)) != 0 {
		t.Fatal("negative timestamps must clamp to window 0")
	}
}

func TestTimelineRowsIncludeGaps(t *testing.T) {
	tl := NewTimeline("cdb1", time.Second)
	emitTxn(tl, "T1", 0, ms(100), "commit")
	emitTxn(tl, "T1", ms(3100), ms(3200), "commit")
	rows := tl.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4 (windows 0..3 with gaps)", len(rows))
	}
	for _, i := range []int{1, 2} {
		if rows[i].Txns != 0 || rows[i].P99 != 0 {
			t.Fatalf("gap window %d not empty: %+v", i, rows[i])
		}
	}
}

func TestTimelineBackgroundTraces(t *testing.T) {
	tl := NewTimeline("cdb1", time.Second)
	// A background trace (empty outcome) contributes spans but no txn row —
	// mirroring StageAgg's addSpan/addTrace split.
	tl.Emit(&Trace{
		SUT: "t", Txn: "checkpoint", Start: ms(10), End: ms(20),
		Spans: []Span{{Kind: KindCheckpointStall, Start: ms(10), End: ms(20)}},
	})
	if r := tl.Row(0); r.Txns != 0 {
		t.Fatalf("background trace counted as a transaction: %+v", r)
	}
	agg := tl.Aggregate()
	rows := agg.Rows()
	if len(rows) != 1 || rows[0].Txn != "checkpoint" || rows[0].Kind != KindCheckpointStall {
		t.Fatalf("aggregate rows = %+v", rows)
	}
}

// TestTimelineMergeEqualsWholeRunAggregation is the satellite property
// test: (a) a Timeline attached as the tracer's sink aggregates to exactly
// the tracer's own StageAgg, bucket-for-bucket; (b) splitting the same
// trace stream across two timelines and merging them equals the unsplit
// timeline, window-for-window and in aggregate.
func TestTimelineMergeEqualsWholeRunAggregation(t *testing.T) {
	width := 500 * time.Millisecond
	whole := NewTimeline("cdb2", width)
	tr := NewTracer("cdb2", whole)

	key := new(int)
	outcomes := []string{"commit", "commit", "commit", "error", "abort"}
	kinds := []Kind{KindCPU, KindLockWait, KindPageRead, KindWALAppend}
	at := time.Duration(0)
	for i := 0; i < 400; i++ {
		// Deterministic pseudo-varied traffic: latencies cycle 1..40ms,
		// timestamps sweep across eight windows.
		lat := ms(1 + i%40)
		tr.StartTxn(key, []string{"T1", "T2", "T3"}[i%3], at)
		tr.Record(key, kinds[i%len(kinds)], at, at+lat/2)
		tr.FinishTxn(key, outcomes[i%len(outcomes)], at+lat)
		if i%7 == 0 {
			tr.RecordBG("replication", KindReplicationShip, "", at, at+ms(2))
		}
		at += ms(9)
	}

	// (a) Timeline-as-sink aggregates to the tracer's whole-run StageAgg.
	if !whole.Aggregate().Equal(tr.Agg()) {
		t.Fatal("timeline Aggregate() != tracer Agg() for the same trace stream")
	}

	// (b) Split the same stream across two timelines (alternating traces),
	// merge, and demand equality with the unsplit timeline.
	a := NewTimeline("cdb2", width)
	b := NewTimeline("cdb2", width)
	split := 0
	replay := NewTracer("cdb2", MultiSink{sinkSwitch{&split, a, b}})
	at = 0
	for i := 0; i < 400; i++ {
		lat := ms(1 + i%40)
		replay.StartTxn(key, []string{"T1", "T2", "T3"}[i%3], at)
		replay.Record(key, kinds[i%len(kinds)], at, at+lat/2)
		replay.FinishTxn(key, outcomes[i%len(outcomes)], at+lat)
		if i%7 == 0 {
			replay.RecordBG("replication", KindReplicationShip, "", at, at+ms(2))
		}
		at += ms(9)
	}
	a.Merge(b)
	if !a.Aggregate().Equal(whole.Aggregate()) {
		t.Fatal("merged split timelines != whole timeline in aggregate")
	}
	wi, ai := whole.WindowIndexes(), a.WindowIndexes()
	if len(wi) != len(ai) {
		t.Fatalf("window sets differ: %v vs %v", wi, ai)
	}
	for n := range wi {
		if wi[n] != ai[n] {
			t.Fatalf("window sets differ: %v vs %v", wi, ai)
		}
		wr, ar := whole.Row(wi[n]), a.Row(ai[n])
		if wr != ar {
			t.Fatalf("window %d rows differ:\nwhole:  %+v\nmerged: %+v", wi[n], wr, ar)
		}
	}
}

// sinkSwitch alternates traces between two sinks.
type sinkSwitch struct {
	n    *int
	a, b Sink
}

func (s sinkSwitch) Emit(tr *Trace) {
	if *s.n%2 == 0 {
		s.a.Emit(tr)
	} else {
		s.b.Emit(tr)
	}
	*s.n++
}

func TestTimelineMergeWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched widths must panic")
		}
	}()
	NewTimeline("a", time.Second).Merge(NewTimeline("a", 2*time.Second))
}

func TestTimelineMarksSorted(t *testing.T) {
	tl := NewTimeline("cdb1", time.Second)
	tl.Mark(ms(500), "sweep", "conservation", true)
	tl.Mark(ms(100), "chaos", "disk-stall rw", true)
	tl.Mark(ms(500), "anomaly", "p99", false)
	marks := tl.Marks()
	if len(marks) != 3 {
		t.Fatalf("marks = %d", len(marks))
	}
	if marks[0].At != ms(100) || marks[1].Kind != "anomaly" || marks[2].Kind != "sweep" {
		t.Fatalf("marks out of order: %+v", marks)
	}
	if !marks[2].Pass || marks[1].Pass {
		t.Fatal("mark Pass flags lost")
	}
}

func TestTimelineAnomalies(t *testing.T) {
	width := time.Second
	tl := NewTimeline("cdb3", width)
	fill := func(win int, commits int, lat time.Duration, outcome string) {
		base := time.Duration(win) * width
		for i := 0; i < commits; i++ {
			end := base + ms(10) + time.Duration(i)*time.Millisecond/4
			emitTxn(tl, "T1", end-lat, end, outcome)
		}
	}
	// Windows 0-2: healthy baseline. Window 3: p99 regression (latency
	// 10x). Window 4: healthy. Window 5: throughput collapse (88 -> 11).
	// Window 6: healthy. Window 7: blackout (attempts, zero commits).
	// Window 8: healthy again.
	for _, w := range []int{0, 1, 2, 4, 6, 8} {
		fill(w, 88, ms(5), "commit")
	}
	fill(3, 88, ms(50), "commit")
	fill(5, 11, ms(5), "commit")
	fill(7, 30, ms(5), "error")

	got := tl.Anomalies()
	type short struct {
		Window int
		Kind   string
	}
	var gotShort []short
	for _, a := range got {
		gotShort = append(gotShort, short{a.Window, a.Kind})
		if a.At != time.Duration(a.Window)*width {
			t.Fatalf("anomaly %+v not stamped at its window start", a)
		}
	}
	want := []short{
		{3, "p99-regression"},
		{5, "throughput-collapse"},
		{7, "unavailability"},
	}
	if len(gotShort) != len(want) {
		t.Fatalf("anomalies = %+v, want %+v", got, want)
	}
	for i := range want {
		if gotShort[i] != want[i] {
			t.Fatalf("anomalies = %+v, want %+v", gotShort, want)
		}
	}
	// Healthy timelines stay quiet: windows recovering upward (4, 6, 8)
	// never alert, and a fresh timeline with uniform traffic reports none.
	quiet := NewTimeline("cdb3", width)
	for w := 0; w < 5; w++ {
		base := time.Duration(w) * width
		for i := 0; i < 50; i++ {
			emitTxn(quiet, "T1", base+ms(i), base+ms(i+5), "commit")
		}
	}
	if as := quiet.Anomalies(); len(as) != 0 {
		t.Fatalf("healthy timeline reported anomalies: %+v", as)
	}
}
