package storage

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord hammers the WAL decoder with arbitrary bytes: it must
// return an error or a record, never panic or over-read. The seed corpus
// includes well-formed records, a torn-short tail, and a bit-flipped tail —
// the exact shapes crash recovery feeds it.
func FuzzDecodeRecord(f *testing.F) {
	mk := func(r Record) []byte { return r.Encode(nil) }
	full := mk(Record{
		LSN: 12, Type: RecUpdate, Txn: 5, Flags: FlagPriorExisted,
		Table: 1, Page: PageID{Table: 1, Num: 3},
		Key: []byte("fuzz-key"), Image: []byte("after"), Prior: []byte("before"),
	})
	f.Add(full)
	f.Add(mk(Record{Type: RecCommit, Txn: 7}))
	f.Add(mk(Record{Type: RecCheckpoint, Image: EncodeCheckpointData(CheckpointData{
		StartLSN:   4,
		ActiveTxns: []CheckpointTxn{{ID: 2, FirstLSN: 4}},
		DirtyPages: []PageID{{Table: 1, Num: 0}},
	})}))
	// Torn-tail seeds straight from the crash model.
	{
		l := NewLog()
		l.Append(Record{Type: RecInsert, Key: []byte("k")})
		l.Sync()
		l.Append(Record{Type: RecUpdate, Txn: 3, Key: []byte("torn"), Image: []byte("image")})
		tail, _ := l.Crash(TornShort)
		f.Add(tail)
	}
	{
		l := NewLog()
		l.Append(Record{Type: RecInsert, Key: []byte("k")})
		l.Sync()
		l.Append(Record{Type: RecUpdate, Txn: 3, Key: []byte("torn"), Image: []byte("image")})
		tail, _ := l.Crash(TornFlip)
		f.Add(tail)
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, recFixed+16))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		if err != nil {
			if n != 0 {
				t.Fatalf("error path consumed %d bytes", n)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// A successful decode must re-encode to the exact consumed bytes:
		// the checksum pins the whole record.
		re := rec.Encode(nil)
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode mismatch: %x vs %x", re, data[:n])
		}
	})
}

// FuzzDecodeCheckpointData does the same for the checkpoint payload codec.
func FuzzDecodeCheckpointData(f *testing.F) {
	f.Add(EncodeCheckpointData(CheckpointData{StartLSN: 1}))
	f.Add(EncodeCheckpointData(CheckpointData{
		StartLSN:   9,
		ActiveTxns: []CheckpointTxn{{ID: 1, FirstLSN: 9}, {ID: 4, FirstLSN: 12}},
		DirtyPages: []PageID{{Table: 2, Num: 7}},
	}))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeCheckpointData(data)
		if err != nil {
			return
		}
		re := EncodeCheckpointData(d)
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("re-encode mismatch")
		}
	})
}
