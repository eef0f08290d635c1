package storage

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"
)

// flatLog is the reference the chunked Log is modelled against: one flat
// slice, every snapshot and restore a full copy, so nothing is ever shared.
type flatLog struct {
	recs    []Record
	bytes   int64
	durable LSN
}

func (f *flatLog) append(r Record) LSN {
	r.LSN = LSN(len(f.recs) + 1)
	f.recs = append(f.recs, r)
	f.bytes += int64(r.Size())
	return r.LSN
}

func (f *flatLog) crash(torn TornMode) (tail []byte, dropped int) {
	keep := int(f.durable)
	if keep >= len(f.recs) {
		return nil, 0
	}
	tail = tornTail(&f.recs[keep], torn)
	dropped = len(f.recs) - keep
	f.truncate(keep)
	return tail, dropped
}

func (f *flatLog) truncate(keep int) {
	for _, r := range f.recs[keep:] {
		f.bytes -= int64(r.Size())
	}
	f.recs = f.recs[:keep]
}

// snapshot is a deep copy; durableOnly cuts it at the fsync barrier.
func (f *flatLog) snapshot(durableOnly bool) flatLog {
	c := flatLog{recs: append([]Record(nil), f.recs...), bytes: f.bytes, durable: f.durable}
	if durableOnly {
		c.truncate(int(c.durable))
	}
	return c
}

// sameLog fails the test unless l and f agree on every observable: head,
// barrier, byte and record counts, and the encoding of every record.
func sameLog(t *testing.T, what string, l *Log, f *flatLog) {
	t.Helper()
	if l.Head() != LSN(len(f.recs)) || l.Len() != len(f.recs) || l.DurableLSN() != f.durable || l.Bytes() != f.bytes {
		t.Fatalf("%s: head/len/durable/bytes = %d/%d/%d/%d, reference %d/%d/%d/%d", what,
			l.Head(), l.Len(), l.DurableLSN(), l.Bytes(), len(f.recs), len(f.recs), f.durable, f.bytes)
	}
	got, want := make([]byte, 0, f.bytes), make([]byte, 0, f.bytes)
	for recs := range l.Chunks() {
		if len(recs) == 0 {
			t.Fatalf("%s: Chunks yielded an empty run", what)
		}
		for i := range recs {
			got = recs[i].Encode(got)
		}
	}
	for i := range f.recs {
		want = f.recs[i].Encode(want)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: encoded records differ from the reference", what)
	}
}

func randRecord(rng *rand.Rand) Record {
	blob := func(max int) []byte {
		b := make([]byte, rng.Intn(max))
		rng.Read(b)
		return b
	}
	return Record{
		Type:  RecType(1 + rng.Intn(int(RecIndexDelete))),
		Txn:   rng.Uint64(),
		Flags: uint8(rng.Intn(4)),
		Table: TableID(rng.Intn(8)),
		Page:  PageID{Table: TableID(rng.Intn(8)), Num: rng.Uint64()},
		Key:   blob(12),
		Image: blob(24),
		Prior: blob(24),
	}
}

// TestChunkedLogMatchesFlatReference runs random scripts of every Log
// operation against the chunked log and the flat reference side by side,
// over several logs and snapshots that restore into one another, with burst
// appends long enough to cross chunk boundaries on most steps.
func TestChunkedLogMatchesFlatReference(t *testing.T) {
	type pair struct {
		l *Log
		f *flatLog
	}
	type snapPair struct {
		s LogSnapshot
		f flatLog
	}
	crossings := 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		logs := []pair{{NewLog(), &flatLog{}}}
		var snaps []snapPair
		for step := 0; step < 300; step++ {
			pr := logs[rng.Intn(len(logs))]
			switch op := rng.Intn(10); {
			case op < 4:
				n := 1 + rng.Intn(3)
				if rng.Intn(2) == 0 {
					n = rng.Intn(2 * logChunkLen)
				}
				crossings += (pr.l.Len()+n)/logChunkLen - pr.l.Len()/logChunkLen
				for ; n > 0; n-- {
					r := randRecord(rng)
					if a, b := pr.l.Append(r), pr.f.append(r); a != b {
						t.Fatalf("seed %d step %d: Append LSN %d, reference %d", seed, step, a, b)
					}
				}
			case op < 6:
				pr.l.Sync()
				pr.f.durable = LSN(len(pr.f.recs))
			case op < 7:
				torn := TornMode(rng.Intn(3))
				tail, dropped := pr.l.Crash(torn)
				wantTail, wantDropped := pr.f.crash(torn)
				if dropped != wantDropped || !bytes.Equal(tail, wantTail) {
					t.Fatalf("seed %d step %d: Crash(%v) = %x/%d, reference %x/%d", seed, step, torn, tail, dropped, wantTail, wantDropped)
				}
			case op < 8:
				snaps = append(snaps, snapPair{pr.l.Snapshot(), pr.f.snapshot(false)})
			case op < 9:
				snaps = append(snaps, snapPair{pr.l.DurableSnapshot(), pr.f.snapshot(true)})
			default:
				if len(snaps) == 0 {
					continue
				}
				sp := snaps[rng.Intn(len(snaps))]
				if len(logs) < 4 && rng.Intn(2) == 0 {
					pr = pair{NewLog(), &flatLog{}}
					logs = append(logs, pr)
				}
				pr.l.Restore(sp.s)
				*pr.f = sp.f.snapshot(false)
			}
			// Every log, not only the one just touched: a write through a
			// shared chunk shows up in a sibling.
			for _, pr := range logs {
				sameLog(t, "log", pr.l, pr.f)
			}
		}
		for _, sp := range snaps {
			l := NewLog()
			l.Restore(sp.s)
			sameLog(t, "snapshot at end of script", l, &sp.f)
		}
	}
	if crossings < 100 {
		t.Fatalf("only %d chunk boundaries crossed", crossings)
	}
}

// TestCrashInsideSharedChunkCopiesFirst is the teeth test of the chunk
// ownership rule: two logs restored from one snapshot append independently,
// and a torn crash that cuts one of them back inside a chunk it shares with
// the snapshot leaves the snapshot and the sibling byte-identical. It fails
// if Crash truncates in place.
func TestCrashInsideSharedChunkCopiesFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src, ref := NewLog(), &flatLog{}
	fill := func(l *Log, f *flatLog, n int) {
		for ; n > 0; n-- {
			r := randRecord(rng)
			l.Append(r)
			f.append(r)
		}
	}
	// Barrier at 1.5 chunks, head at 2.5: the snapshot holds one sealed chunk
	// whole, a second the barrier falls inside, and an open third.
	fill(src, ref, logChunkLen+logChunkLen/2)
	src.Sync()
	ref.durable = src.DurableLSN()
	fill(src, ref, logChunkLen)
	snap, snapRef := src.Snapshot(), ref.snapshot(false)

	a, aRef := NewLog(), snapRef.snapshot(false)
	b, bRef := NewLog(), snapRef.snapshot(false)
	a.Restore(snap)
	b.Restore(snap)
	fill(a, &aRef, 40)
	fill(b, &bRef, 70)

	tail, dropped := a.Crash(TornFlip)
	wantTail, wantDropped := aRef.crash(TornFlip)
	if dropped != wantDropped || dropped != logChunkLen+40 || !bytes.Equal(tail, wantTail) {
		t.Fatalf("Crash dropped %d (reference %d), tails equal: %v", dropped, wantDropped, bytes.Equal(tail, wantTail))
	}
	fill(a, &aRef, logChunkLen)
	fill(b, &bRef, 5)

	sameLog(t, "crashed log", a, &aRef)
	sameLog(t, "sibling", b, &bRef)
	sameLog(t, "source", src, ref)
	again := NewLog()
	again.Restore(snap)
	sameLog(t, "snapshot", again, &snapRef)
}

// TestLogAppendAllocatesOnlyChunks gates the log's memory at the records
// themselves: appending n records allocates n record slots plus the chunk
// pointers, not the several copies a regrowing slice leaves behind.
func TestLogAppendAllocatesOnlyChunks(t *testing.T) {
	const n = 100_000
	l := NewLog()
	rec := Record{Type: RecInsert, Key: []byte("k"), Image: []byte("image")}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		l.Append(rec)
	}
	runtime.ReadMemStats(&m1)
	got := m1.TotalAlloc - m0.TotalAlloc
	if limit := uint64(1.1 * n * float64(unsafe.Sizeof(Record{}))); got > limit {
		t.Fatalf("appending %d records allocated %d bytes, want <= %d", n, got, limit)
	}
	if l.Len() != n {
		t.Fatalf("len = %d", l.Len())
	}
}
