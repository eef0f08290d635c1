package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"iter"
	"slices"
)

// LSN is a log sequence number. LSNs are dense and strictly increasing per
// log stream, starting at 1.
type LSN uint64

// RecType enumerates WAL record types.
type RecType uint8

// WAL record types.
const (
	RecBegin RecType = iota + 1
	RecInsert
	RecUpdate
	RecDelete
	RecCommit
	RecAbort
	RecCheckpoint
	// RecIndexPut / RecIndexDelete describe secondary-index entry changes.
	// Table names the index's synthetic TableID and Page its index page, so
	// fenced-write accounting and replica cache invalidation see index
	// traffic; replicas apply them as data-layer no-ops because index state
	// is re-derived from the heap records (see engine.Table.refreshIndexes).
	RecIndexPut
	RecIndexDelete
)

func (t RecType) String() string {
	switch t {
	case RecBegin:
		return "BEGIN"
	case RecInsert:
		return "INSERT"
	case RecUpdate:
		return "UPDATE"
	case RecDelete:
		return "DELETE"
	case RecCommit:
		return "COMMIT"
	case RecAbort:
		return "ABORT"
	case RecCheckpoint:
		return "CHECKPOINT"
	case RecIndexPut:
		return "IXPUT"
	case RecIndexDelete:
		return "IXDEL"
	default:
		return fmt.Sprintf("RecType(%d)", uint8(t))
	}
}

// Record flag bits. The prior-image flags capture the exact overlay shape a
// write displaced, so crash recovery can roll a loser back with
// engine.Table.undoSet — the same machinery a runtime abort uses.
const (
	// FlagPriorExisted: the key was visible before the write (updates and
	// deletes; clear for inserts).
	FlagPriorExisted uint8 = 1 << 0
	// FlagPriorInDelta: the key had a delta-overlay entry (row or tombstone)
	// before the write; clear means the visible value came from base storage.
	FlagPriorInDelta uint8 = 1 << 1
)

// Record is one write-ahead-log entry. For data records, Key is the encoded
// primary key and Image the encoded after-image row (nil for deletes); Prior
// is the encoded before-image (nil for inserts), which makes recovery undo of
// uncommitted transactions possible without consulting volatile state. Page
// carries the physical page the change touched, which replicas use to drive
// cache invalidation and parallel replay partitioning. Published (shipped)
// copies strip Prior — replicas replay after-images only.
type Record struct {
	LSN   LSN
	Type  RecType
	Txn   uint64
	Flags uint8
	Table TableID
	Page  PageID
	Key   []byte
	Image []byte
	Prior []byte
}

// recFixed is the encoded size of the fixed-width header fields, recSum the
// CRC trailer.
const (
	recFixed = 1 + 8 + 8 + 1 + 4 + 4 + 8
	recSum   = 4
)

// recCRC is the CRC-32C (Castagnoli) table used for record checksums.
var recCRC = crc32.MakeTable(crc32.Castagnoli)

// Size returns the encoded size in bytes, used to model log-shipping
// bandwidth and fsync cost.
func (r *Record) Size() int {
	return recFixed + 4 + len(r.Key) + 4 + len(r.Image) + 4 + len(r.Prior) + recSum
}

// Encode appends the binary encoding of r to dst and returns the result.
// The format is fixed-width headers with length-prefixed key, image, and
// prior-image, closed by a CRC-32C over everything before it.
func (r *Record) Encode(dst []byte) []byte {
	start := len(dst)
	dst = append(dst, byte(r.Type))
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.LSN))
	dst = binary.BigEndian.AppendUint64(dst, r.Txn)
	dst = append(dst, r.Flags)
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Table))
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Page.Table))
	dst = binary.BigEndian.AppendUint64(dst, r.Page.Num)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Image)))
	dst = append(dst, r.Image...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Prior)))
	dst = append(dst, r.Prior...)
	sum := crc32.Checksum(dst[start:], recCRC)
	return binary.BigEndian.AppendUint32(dst, sum)
}

// ErrShortRecord reports a truncated record during decode.
var ErrShortRecord = errors.New("storage: truncated WAL record")

// ErrCorruptRecord reports a checksum mismatch during decode: the record was
// fully present but its bytes do not match the CRC trailer (a torn or
// bit-rotted write).
var ErrCorruptRecord = errors.New("storage: corrupt WAL record (checksum mismatch)")

// DecodeRecord decodes one record from buf, verifying its checksum, and
// returns the record and the number of bytes consumed. Truncation returns
// ErrShortRecord, a checksum mismatch ErrCorruptRecord; either way the tail
// of a crashed log must be cut at the failing record.
func DecodeRecord(buf []byte) (Record, int, error) {
	var r Record
	if len(buf) < recFixed+4 {
		return r, 0, ErrShortRecord
	}
	off := 0
	r.Type = RecType(buf[off])
	off++
	r.LSN = LSN(binary.BigEndian.Uint64(buf[off:]))
	off += 8
	r.Txn = binary.BigEndian.Uint64(buf[off:])
	off += 8
	r.Flags = buf[off]
	off++
	r.Table = TableID(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	r.Page.Table = TableID(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	r.Page.Num = binary.BigEndian.Uint64(buf[off:])
	off += 8
	klen := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if klen < 0 || len(buf)-off < klen+4 {
		return r, 0, ErrShortRecord
	}
	if klen > 0 {
		r.Key = append([]byte(nil), buf[off:off+klen]...)
	}
	off += klen
	ilen := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if ilen < 0 || len(buf)-off < ilen+4 {
		return r, 0, ErrShortRecord
	}
	if ilen > 0 {
		r.Image = append([]byte(nil), buf[off:off+ilen]...)
	}
	off += ilen
	plen := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if plen < 0 || len(buf)-off < plen+recSum {
		return r, 0, ErrShortRecord
	}
	if plen > 0 {
		r.Prior = append([]byte(nil), buf[off:off+plen]...)
	}
	off += plen
	want := binary.BigEndian.Uint32(buf[off:])
	off += recSum
	if crc32.Checksum(buf[:off-recSum], recCRC) != want {
		return Record{}, 0, ErrCorruptRecord
	}
	return r, off, nil
}

// CheckpointTxn is one active-transaction-table entry of a fuzzy checkpoint:
// a transaction that had logged work but not yet committed or aborted when
// the checkpoint was taken, and the LSN of its first record (the lower bound
// of any undo scan that must roll it back).
type CheckpointTxn struct {
	ID       uint64
	FirstLSN LSN
}

// CheckpointData is the payload of a RecCheckpoint record: the fuzzy
// checkpoint's redo start point, active-transaction table, and dirty-page
// table. Recovery replays forward from StartLSN (everything older is covered
// by flushed pages or by the ATT's undo ranges) and rolls back every ATT
// entry that never reached a commit record.
type CheckpointData struct {
	// StartLSN is min(first LSN of every active txn, checkpoint LSN): the
	// oldest record recovery may need.
	StartLSN LSN
	// ActiveTxns is the active-transaction table in ascending txn-id order.
	ActiveTxns []CheckpointTxn
	// DirtyPages is the dirty-page table: pages modified in the buffer pool
	// but not yet written back when the checkpoint began.
	DirtyPages []PageID
}

// EncodeCheckpointData serializes the payload for a RecCheckpoint's Image.
func EncodeCheckpointData(d CheckpointData) []byte {
	buf := make([]byte, 0, 8+4+len(d.ActiveTxns)*16+4+len(d.DirtyPages)*12)
	buf = binary.BigEndian.AppendUint64(buf, uint64(d.StartLSN))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(d.ActiveTxns)))
	for _, t := range d.ActiveTxns {
		buf = binary.BigEndian.AppendUint64(buf, t.ID)
		buf = binary.BigEndian.AppendUint64(buf, uint64(t.FirstLSN))
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(d.DirtyPages)))
	for _, pg := range d.DirtyPages {
		buf = binary.BigEndian.AppendUint32(buf, uint32(pg.Table))
		buf = binary.BigEndian.AppendUint64(buf, pg.Num)
	}
	return buf
}

// DecodeCheckpointData parses a RecCheckpoint Image.
func DecodeCheckpointData(buf []byte) (CheckpointData, error) {
	var d CheckpointData
	if len(buf) < 12 {
		return d, ErrShortRecord
	}
	d.StartLSN = LSN(binary.BigEndian.Uint64(buf))
	off := 8
	n := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if n < 0 || len(buf)-off < n*16+4 {
		return d, ErrShortRecord
	}
	for i := 0; i < n; i++ {
		d.ActiveTxns = append(d.ActiveTxns, CheckpointTxn{
			ID:       binary.BigEndian.Uint64(buf[off:]),
			FirstLSN: LSN(binary.BigEndian.Uint64(buf[off+8:])),
		})
		off += 16
	}
	m := int(binary.BigEndian.Uint32(buf[off:]))
	off += 4
	if m < 0 || len(buf)-off < m*12 {
		return d, ErrShortRecord
	}
	for i := 0; i < m; i++ {
		d.DirtyPages = append(d.DirtyPages, PageID{
			Table: TableID(binary.BigEndian.Uint32(buf[off:])),
			Num:   binary.BigEndian.Uint64(buf[off+4:]),
		})
		off += 12
	}
	return d, nil
}

// TornMode selects how a crash mangles the record being written when the
// failure hit (the torn tail past the last fsync barrier).
type TornMode int

const (
	// TornNone: the crash fell between record writes; the unsynced suffix
	// just vanishes.
	TornNone TornMode = iota
	// TornShort: the first unsynced record was half-written — the tail holds
	// a truncated encoding (structural decode failure, ErrShortRecord).
	TornShort
	// TornFlip: the first unsynced record is full-length but a payload byte
	// was mangled in flight — structurally decodable, caught only by the
	// CRC trailer (ErrCorruptRecord).
	TornFlip
)

func (m TornMode) String() string {
	switch m {
	case TornShort:
		return "torn-short"
	case TornFlip:
		return "torn-flip"
	default:
		return "none"
	}
}

// Log chunk geometry: records live in fixed-length chunks, so a record's
// position is (index >> logChunkShift, index & logChunkMask) and growing the
// log never moves a record.
const (
	logChunkShift = 8
	logChunkLen   = 1 << logChunkShift
	logChunkMask  = logChunkLen - 1
)

type logChunk [logChunkLen]Record

// prefix returns a fresh chunk holding copies of c's first n records.
func (c *logChunk) prefix(n int) *logChunk {
	p := new(logChunk)
	copy(p[:n], c[:n])
	return p
}

// Log is an in-memory write-ahead log stream. The RW node appends; recovery,
// replica resync and promotion seeding read it back. Appends assign dense
// LSNs starting at 1, and the log is retained for the node's life: recovery
// and replica resync read it from LSN 1 and only price the part since the
// last checkpoint.
//
// The log models an fsync barrier: Append leaves records volatile (buffered
// in the OS or device cache) until Sync marks everything appended so far
// durable. Group commit falls out naturally — one transaction's commit fsync
// drags every earlier append, including other transactions' in-flight
// operation records, across the barrier. Crash discards the suffix past the
// barrier (see Crash).
//
// Chunk ownership. A Log and the LogSnapshots taken from it share chunks, so
// a slot that holds a record is never written again by anyone:
//   - a sealed (full) chunk is shared by the log, its snapshots and every log
//     restored from them, and is never written;
//   - the open (partly filled) last chunk is appended to by exactly one log —
//     Restore gives the restoring log a private copy — and that log writes
//     only slots past its own length, which no snapshot of it can see;
//   - truncation inside a chunk (Crash) copies the surviving prefix into a
//     fresh chunk first, so the records it drops stay intact for whoever
//     else holds the old one.
type Log struct {
	chunks  []*logChunk // len(chunks) == ceil(n / logChunkLen)
	n       int         // records held; the last has LSN n
	bytes   int64
	durable LSN // highest LSN covered by an fsync barrier (0 = none); never past n
}

// NewLog returns an empty log whose first record will get LSN 1.
func NewLog() *Log {
	return &Log{}
}

// Append assigns the next LSN to r, stores it, and returns the LSN. The
// record is volatile until the next Sync.
//
//detlint:hotpath
func (l *Log) Append(r Record) LSN {
	off := l.n & logChunkMask
	if off == 0 {
		l.addChunk()
	}
	l.n++
	r.LSN = LSN(l.n)
	l.chunks[len(l.chunks)-1][off] = r
	l.bytes += int64(r.Size())
	return r.LSN
}

// addChunk opens a fresh chunk: the log's one allocation per logChunkLen
// appends. Kept out of line so that Append stays small enough to inline into
// the commit path without carrying the allocation there.
//
//detlint:coldpath
//go:noinline
func (l *Log) addChunk() {
	l.chunks = append(l.chunks, new(logChunk))
}

// at returns the record at zero-based index i (LSN i+1).
func (l *Log) at(i int) *Record {
	return &l.chunks[i>>logChunkShift][i&logChunkMask]
}

// bytesFrom returns the encoded size of the records from index i on.
func (l *Log) bytesFrom(i int) int64 {
	var b int64
	for ; i < l.n; i++ {
		b += int64(l.at(i).Size())
	}
	return b
}

// Sync marks everything appended so far durable (the fsync barrier). The
// caller pays the durability latency through its storage backend; Sync is
// the bookkeeping that moves the barrier.
func (l *Log) Sync() {
	l.durable = l.Head()
}

// DurableLSN returns the highest LSN the fsync barrier covers.
func (l *Log) DurableLSN() LSN { return l.durable }

// Head returns the LSN of the most recent record (0 if empty).
func (l *Log) Head() LSN { return LSN(l.n) }

// Crash models power loss at this instant: every record past the fsync
// barrier is dropped from the log, and — when torn is not TornNone and an
// unsynced record existed — the encoding of the first dropped record comes
// back mangled per the mode, as the torn tail a recovery scan must detect
// and cut. It returns the torn-tail bytes (nil if none) and the number of
// records lost.
func (l *Log) Crash(torn TornMode) (tail []byte, dropped int) {
	keep := int(l.durable)
	if keep >= l.n {
		return nil, 0
	}
	dropped = l.n - keep
	tail = tornTail(l.at(keep), torn)
	l.bytes -= l.bytesFrom(keep)
	// Cut without writing to any existing chunk (see Chunk ownership): whole
	// chunks past the barrier are unlinked, and a chunk the barrier falls
	// inside is replaced by a private copy of its surviving prefix.
	whole, off := keep>>logChunkShift, keep&logChunkMask
	if off > 0 {
		l.chunks[whole] = l.chunks[whole].prefix(off)
		whole++
	}
	clear(l.chunks[whole:])
	l.chunks = l.chunks[:whole]
	l.n = keep
	return tail, dropped
}

// tornTail returns what a crash in the given mode leaves of the record that
// was being written: nil for TornNone, else rec's encoding mangled.
func tornTail(rec *Record, torn TornMode) []byte {
	if torn == TornNone {
		return nil
	}
	enc := rec.Encode(nil)
	if torn == TornShort {
		// Keep just over half the record: enough for the fixed header so
		// the decoder gets into the variable-length section before the
		// bytes run out.
		return enc[:recFixed+(len(enc)-recFixed)/2]
	}
	// TornFlip: mangle a payload byte — the last prior-image byte when the
	// record carries one (a reader that trusts the tail would then undo
	// with a value that never existed), else a fixed-header byte inside
	// Page.Num. Never a length prefix: the record still parses
	// structurally, only the checksum knows.
	if len(rec.Prior) > 0 {
		enc[len(enc)-recSum-1] ^= 0xff
	} else {
		enc[recFixed-2] ^= 0xff
	}
	return enc
}

// Chunks yields the log's records in LSN order, one slice per chunk. The
// slices alias the log's storage and must not be written; the log must not
// be appended to or crashed while the iteration runs.
func (l *Log) Chunks() iter.Seq[[]Record] {
	return func(yield func([]Record) bool) {
		for i, c := range l.chunks {
			if !yield(c[:min(logChunkLen, l.n-(i<<logChunkShift))]) {
				return
			}
		}
	}
}

// LogSnapshot is a point-in-time capture of a Log (warm-up memoization and
// crash recovery). It owns its chunk-pointer slice and shares the chunks
// themselves with the source log under the Chunk ownership rule on Log: the
// first n slots are never written again, by the source or by any log
// restored from the snapshot.
type LogSnapshot struct {
	chunks  []*logChunk
	n       int
	bytes   int64
	durable LSN
}

// Snapshot captures the log's current state.
func (l *Log) Snapshot() LogSnapshot { return l.snapshotAt(l.n) }

// DurableSnapshot is Snapshot restricted to the durable prefix — what
// shared storage serves to a resyncing replica. Records past the fsync
// barrier exist only in the primary's volatile memory and must not leak
// into another node's recovery source.
func (l *Log) DurableSnapshot() LogSnapshot { return l.snapshotAt(int(l.durable)) }

// snapshotAt captures the log's first n records.
func (l *Log) snapshotAt(n int) LogSnapshot {
	chunks := (n + logChunkMask) >> logChunkShift
	return LogSnapshot{chunks: slices.Clone(l.chunks[:chunks]), n: n, bytes: l.bytes - l.bytesFrom(n), durable: l.durable}
}

// Restore resets the log to a snapshot. Sealed chunks are shared; the open
// chunk, if any, is copied so that several logs restored from one snapshot
// append independently.
func (l *Log) Restore(snap LogSnapshot) {
	l.chunks = slices.Clone(snap.chunks)
	if off := snap.n & logChunkMask; off > 0 {
		last := len(l.chunks) - 1
		l.chunks[last] = l.chunks[last].prefix(off)
	}
	l.n = snap.n
	l.bytes = snap.bytes
	l.durable = snap.durable
}

// Len returns the number of records held.
func (l *Log) Len() int { return l.n }

// Bytes returns the total encoded size of the records held.
func (l *Log) Bytes() int64 { return l.bytes }
