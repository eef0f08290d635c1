package storage

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
	"testing/quick"
)

func TestPagesForAndRowsPerPage(t *testing.T) {
	if got := PagesFor(0, 64); got != 0 {
		t.Fatalf("PagesFor(0) = %d", got)
	}
	// 8192/64 = 128 rows per page.
	if got := RowsPerPage(64); got != 128 {
		t.Fatalf("RowsPerPage(64) = %d, want 128", got)
	}
	if got := PagesFor(128, 64); got != 1 {
		t.Fatalf("PagesFor(128,64) = %d, want 1", got)
	}
	if got := PagesFor(129, 64); got != 2 {
		t.Fatalf("PagesFor(129,64) = %d, want 2", got)
	}
	// Oversized rows still fit one per page.
	if got := RowsPerPage(100000); got != 1 {
		t.Fatalf("RowsPerPage(huge) = %d, want 1", got)
	}
	if got := RowsPerPage(0); got <= 0 {
		t.Fatalf("RowsPerPage(0) = %d, want positive", got)
	}
}

func pid(n uint64) PageID { return PageID{Table: 1, Num: n} }

func TestBufferPoolHitMissLRU(t *testing.T) {
	b := NewBufferPool(2)
	if b.Pin(pid(1)) {
		t.Fatal("empty pool reported hit")
	}
	b.Admit(pid(1))
	b.Admit(pid(2))
	if !b.Pin(pid(1)) || !b.Pin(pid(2)) {
		t.Fatal("resident pages reported miss")
	}
	// Access order is now 1 then 2 (2 most recent); admitting 3 evicts 1.
	if b.Pin(pid(3)) {
		t.Fatal("absent page reported hit")
	}
	ev, dirty, ok := b.Admit(pid(3))
	if !ok || ev != pid(1) || dirty {
		t.Fatalf("evicted = %v dirty=%v ok=%v, want page 1 clean", ev, dirty, ok)
	}
	if b.Contains(pid(1)) {
		t.Fatal("evicted page still resident")
	}
	hits, misses, evicted, _ := b.Stats()
	if hits != 2 || misses != 2 || evicted != 1 {
		t.Fatalf("stats = %d/%d/%d, want 2/2/1", hits, misses, evicted)
	}
	if got := b.HitRatio(); got != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", got)
	}
}

func TestBufferPoolDirtyEviction(t *testing.T) {
	b := NewBufferPool(1)
	b.Admit(pid(1))
	b.MarkDirty(pid(1))
	if b.DirtyCount() != 1 {
		t.Fatalf("dirty count = %d, want 1", b.DirtyCount())
	}
	ev, dirty, ok := b.Admit(pid(2))
	if !ok || ev != pid(1) || !dirty {
		t.Fatalf("evicting dirty page: ev=%v dirty=%v ok=%v", ev, dirty, ok)
	}
	_, _, _, flushed := b.Stats()
	if flushed != 1 {
		t.Fatalf("flushed = %d, want 1", flushed)
	}
}

func TestBufferPoolMarkDirtyNonResidentIgnored(t *testing.T) {
	b := NewBufferPool(4)
	b.MarkDirty(pid(9)) // must not panic or create residency
	if b.Len() != 0 {
		t.Fatal("MarkDirty created residency")
	}
}

func TestBufferPoolFlushAll(t *testing.T) {
	b := NewBufferPool(4)
	for i := uint64(1); i <= 3; i++ {
		b.Admit(pid(i))
		b.MarkDirty(pid(i))
	}
	if n := b.FlushAll(); n != 3 {
		t.Fatalf("FlushAll = %d, want 3", n)
	}
	if b.DirtyCount() != 0 {
		t.Fatal("dirty pages remain after FlushAll")
	}
	if n := b.FlushAll(); n != 0 {
		t.Fatalf("second FlushAll = %d, want 0", n)
	}
}

func TestBufferPoolInvalidate(t *testing.T) {
	b := NewBufferPool(4)
	b.Admit(pid(1))
	if !b.Invalidate(pid(1)) {
		t.Fatal("Invalidate of resident page returned false")
	}
	if b.Invalidate(pid(1)) {
		t.Fatal("Invalidate of absent page returned true")
	}
	if b.Contains(pid(1)) {
		t.Fatal("page resident after invalidate")
	}
}

func TestBufferPoolResize(t *testing.T) {
	b := NewBufferPool(4)
	for i := uint64(1); i <= 4; i++ {
		b.Admit(pid(i))
	}
	b.MarkDirty(pid(1))
	b.MarkDirty(pid(2))
	dirtyEv := b.Resize(2)
	if b.Len() != 2 || b.Capacity() != 2 {
		t.Fatalf("len/cap = %d/%d, want 2/2", b.Len(), b.Capacity())
	}
	// Pages 1 and 2 were the LRU pair and both dirty.
	if dirtyEv != 2 {
		t.Fatalf("dirty evicted = %d, want 2", dirtyEv)
	}
	// Growing never evicts.
	if ev := b.Resize(10); ev != 0 {
		t.Fatalf("grow evicted %d pages", ev)
	}
}

func TestBufferPoolZeroCapacity(t *testing.T) {
	b := NewBufferPool(0)
	if _, _, ok := b.Admit(pid(1)); ok {
		t.Fatal("zero-capacity pool evicted something")
	}
	if b.Pin(pid(1)) {
		t.Fatal("zero-capacity pool reported hit")
	}
	if b.Len() != 0 {
		t.Fatal("zero-capacity pool holds pages")
	}
}

func TestBufferPoolClear(t *testing.T) {
	b := NewBufferPool(4)
	b.Admit(pid(1))
	b.Clear()
	if b.Len() != 0 || b.Contains(pid(1)) {
		t.Fatal("Clear did not empty the pool")
	}
}

func TestBufferPoolAdmitExistingRefreshes(t *testing.T) {
	b := NewBufferPool(2)
	b.Admit(pid(1))
	b.Admit(pid(2))
	b.Admit(pid(1)) // refresh, no eviction
	ev, _, ok := b.Admit(pid(3))
	if !ok || ev != pid(2) {
		t.Fatalf("evicted %v, want page 2 (page 1 was refreshed)", ev)
	}
}

func TestRecordEncodeDecodeRoundTrip(t *testing.T) {
	r := Record{
		LSN:   42,
		Type:  RecUpdate,
		Txn:   7,
		Table: 3,
		Page:  PageID{Table: 3, Num: 99},
		Key:   []byte("key-17"),
		Image: []byte{0x01, 0x02, 0x00, 0xff},
	}
	enc := r.Encode(nil)
	if len(enc) != r.Size() {
		t.Fatalf("encoded size %d != Size() %d", len(enc), r.Size())
	}
	got, n, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d bytes", n, len(enc))
	}
	if got.LSN != r.LSN || got.Type != r.Type || got.Txn != r.Txn ||
		got.Table != r.Table || got.Page != r.Page ||
		!bytes.Equal(got.Key, r.Key) || !bytes.Equal(got.Image, r.Image) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
}

func TestRecordPriorFlagsRoundTrip(t *testing.T) {
	r := Record{
		LSN:   9,
		Type:  RecDelete,
		Txn:   4,
		Flags: FlagPriorExisted | FlagPriorInDelta,
		Table: 2,
		Page:  PageID{Table: 2, Num: 5},
		Key:   []byte("gone"),
		Prior: []byte("old-row-bytes"),
	}
	enc := r.Encode(nil)
	if len(enc) != r.Size() {
		t.Fatalf("encoded size %d != Size() %d", len(enc), r.Size())
	}
	got, _, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != r.Flags || !bytes.Equal(got.Prior, r.Prior) || got.Image != nil {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
}

func TestRecordDecodeCorrupt(t *testing.T) {
	r := Record{LSN: 3, Type: RecUpdate, Txn: 1, Key: []byte("k"), Image: []byte("new"), Prior: []byte("old")}
	enc := r.Encode(nil)
	// Flipping any single byte must be caught by the checksum.
	for i := 0; i < len(enc); i++ {
		enc[i] ^= 0xff
		if _, _, err := DecodeRecord(enc); err == nil {
			t.Fatalf("flipped byte %d not detected", i)
		}
		enc[i] ^= 0xff
	}
	if _, _, err := DecodeRecord(enc); err != nil {
		t.Fatalf("pristine record failed to decode: %v", err)
	}
	// The CRC is the only guard: a payload flip (recFixed+4 is the first key
	// byte — payload, not a length) under a recomputed trailer decodes.
	enc[recFixed+4] ^= 0xff
	if _, _, err := DecodeRecord(resealed(enc)); err != nil {
		t.Fatalf("resealed record with a flipped payload byte rejected: %v", err)
	}
}

// resealed returns a copy of an encoded record with its CRC trailer
// recomputed over whatever bytes precede it.
func resealed(enc []byte) []byte {
	out := append([]byte(nil), enc...)
	n := len(out) - recSum
	binary.BigEndian.PutUint32(out[n:], crc32.Checksum(out[:n], recCRC))
	return out
}

func TestCheckpointDataRoundTrip(t *testing.T) {
	d := CheckpointData{
		StartLSN: 17,
		ActiveTxns: []CheckpointTxn{
			{ID: 3, FirstLSN: 17},
			{ID: 8, FirstLSN: 22},
		},
		DirtyPages: []PageID{{Table: 1, Num: 4}, {Table: 2, Num: 0}},
	}
	buf := EncodeCheckpointData(d)
	got, err := DecodeCheckpointData(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.StartLSN != d.StartLSN || len(got.ActiveTxns) != 2 || len(got.DirtyPages) != 2 ||
		got.ActiveTxns[1] != d.ActiveTxns[1] || got.DirtyPages[0] != d.DirtyPages[0] {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, d)
	}
	// Truncated payloads error, never panic.
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeCheckpointData(buf[:i]); err == nil {
			t.Fatalf("decoding %d-byte checkpoint prefix did not fail", i)
		}
	}
	empty, err := DecodeCheckpointData(EncodeCheckpointData(CheckpointData{StartLSN: 1}))
	if err != nil || empty.StartLSN != 1 || empty.ActiveTxns != nil || empty.DirtyPages != nil {
		t.Fatalf("empty checkpoint round trip: %+v err=%v", empty, err)
	}
}

func TestLogSyncAndCrashDropsUnsyncedTail(t *testing.T) {
	l := NewLog()
	for i := 0; i < 3; i++ {
		l.Append(Record{Type: RecInsert, Key: []byte{byte(i)}})
	}
	l.Sync()
	if l.DurableLSN() != 3 {
		t.Fatalf("durable = %d, want 3", l.DurableLSN())
	}
	for i := 3; i < 7; i++ {
		l.Append(Record{Type: RecInsert, Key: []byte{byte(i)}})
	}
	tail, dropped := l.Crash(TornNone)
	if tail != nil || dropped != 4 {
		t.Fatalf("crash: tail=%v dropped=%d, want nil/4", tail, dropped)
	}
	if l.Head() != 3 || l.Len() != 3 {
		t.Fatalf("post-crash head/len = %d/%d, want 3/3", l.Head(), l.Len())
	}
	// Appends after recovery continue the LSN sequence densely.
	if lsn := l.Append(Record{Type: RecInsert}); lsn != 4 {
		t.Fatalf("post-crash append LSN = %d, want 4", lsn)
	}
	// Crash with nothing unsynced is a no-op.
	l.Sync()
	if _, dropped := l.Crash(TornShort); dropped != 0 {
		t.Fatalf("synced crash dropped %d records", dropped)
	}
}

func TestLogCrashTornShort(t *testing.T) {
	l := NewLog()
	l.Append(Record{Type: RecInsert, Key: []byte("a")})
	l.Sync()
	l.Append(Record{Type: RecUpdate, Txn: 9, Key: []byte("torn-key"), Image: []byte("torn-image")})
	tail, dropped := l.Crash(TornShort)
	if dropped != 1 || tail == nil {
		t.Fatalf("dropped=%d tail=%v", dropped, tail)
	}
	if _, _, err := DecodeRecord(tail); err != ErrShortRecord {
		t.Fatalf("torn-short tail decode err = %v, want ErrShortRecord", err)
	}
}

func TestLogCrashTornFlip(t *testing.T) {
	l := NewLog()
	l.Append(Record{Type: RecInsert, Key: []byte("a")})
	l.Sync()
	l.Append(Record{Type: RecUpdate, Txn: 9, Key: []byte("torn-key"), Image: []byte("torn-image")})
	tail, dropped := l.Crash(TornFlip)
	if dropped != 1 || tail == nil {
		t.Fatalf("dropped=%d tail=%v", dropped, tail)
	}
	if _, _, err := DecodeRecord(tail); err != ErrCorruptRecord {
		t.Fatalf("torn-flip tail decode err = %v, want ErrCorruptRecord", err)
	}
	// Under a recomputed trailer the flipped tail decodes — that is the
	// hazard recovery's checksum pass exists to close.
	rec, _, err := DecodeRecord(resealed(tail))
	if err != nil {
		t.Fatalf("resealed flipped tail failed to decode: %v", err)
	}
	if rec.Txn != 9 {
		t.Fatalf("resealed tail decoded txn %d, want 9", rec.Txn)
	}
}

func TestLogSnapshotCarriesDurable(t *testing.T) {
	l := NewLog()
	l.Append(Record{Type: RecInsert})
	l.Sync()
	l.Append(Record{Type: RecInsert})
	snap := l.Snapshot()
	l2 := NewLog()
	l2.Restore(snap)
	if l2.DurableLSN() != 1 || l2.Head() != 2 {
		t.Fatalf("restored durable/head = %d/%d, want 1/2", l2.DurableLSN(), l2.Head())
	}
	if _, dropped := l2.Crash(TornNone); dropped != 1 {
		t.Fatalf("restored log crash dropped %d, want 1", dropped)
	}
}

func TestBufferPoolDirtyPages(t *testing.T) {
	b := NewBufferPool(4)
	for i := uint64(1); i <= 3; i++ {
		b.Admit(pid(i))
	}
	b.MarkDirty(pid(1))
	b.MarkDirty(pid(3))
	got := b.DirtyPages()
	// MRU-first order: 3 admitted last.
	if len(got) != 2 || got[0] != pid(3) || got[1] != pid(1) {
		t.Fatalf("DirtyPages = %v, want [3 1]", got)
	}
	b.FlushAll()
	if b.DirtyPages() != nil {
		t.Fatal("DirtyPages after FlushAll not empty")
	}
}

func TestRecordDecodeTruncated(t *testing.T) {
	r := Record{Type: RecInsert, Key: []byte("k"), Image: []byte("img")}
	enc := r.Encode(nil)
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeRecord(enc[:i]); err == nil {
			t.Fatalf("decoding %d-byte prefix did not fail", i)
		}
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	check := func(typ uint8, txn uint64, table uint32, pnum uint64, key, image []byte) bool {
		r := Record{
			Type:  RecType(typ%7 + 1),
			Txn:   txn,
			Table: TableID(table),
			Page:  PageID{Table: TableID(table), Num: pnum},
			Key:   key,
			Image: image,
		}
		enc := r.Encode(nil)
		got, n, err := DecodeRecord(enc)
		if err != nil || n != len(enc) {
			return false
		}
		return got.Type == r.Type && got.Txn == r.Txn &&
			bytes.Equal(got.Key, r.Key) && bytes.Equal(got.Image, r.Image)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordTypeStrings(t *testing.T) {
	for _, typ := range []RecType{RecBegin, RecInsert, RecUpdate, RecDelete, RecCommit, RecAbort, RecCheckpoint} {
		if s := typ.String(); s == "" || s[0] == 'R' && s != "RecType(0)" && len(s) > 10 && s[:7] == "RecType" {
			t.Fatalf("unexpected string for %d: %q", typ, s)
		}
	}
	if RecType(99).String() != "RecType(99)" {
		t.Fatal("unknown type string")
	}
}

func TestLogAppendReadHead(t *testing.T) {
	l := NewLog()
	if l.Head() != 0 {
		t.Fatalf("empty head = %d, want 0", l.Head())
	}
	for i := 0; i < 5; i++ {
		lsn := l.Append(Record{Type: RecInsert, Key: []byte{byte(i)}})
		if lsn != LSN(i+1) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	if l.Head() != 5 || l.Len() != 5 {
		t.Fatalf("head/len = %d/%d, want 5/5", l.Head(), l.Len())
	}
	recs := slices.Concat(slices.Collect(l.Chunks())...)
	if len(recs) != 5 || recs[0].LSN != 1 || recs[4].LSN != 5 {
		t.Fatalf("Chunks returned %d records", len(recs))
	}
}
