// Package engine implements the shared transactional core of every
// simulated cloud database: typed rows, memcomparable key encoding, an
// in-memory B-tree, a simulation-aware two-phase-locking lock manager, and
// write transactions with undo and WAL emission.
//
// One engine instance backs the read-write node; each read-only replica
// holds its own instance that applies shipped WAL records. Base table data
// is materialized deterministically from a generator function (see Table),
// so multi-gigabyte scale factors need memory only for written rows.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unsafe"
)

// Kind enumerates value types. The set covers what the CloudyBench and
// TPC-C schemas need: integers (ids, counts, timestamps as unix micros),
// floats (amounts, credits), and strings (names, statuses).
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is one typed column value in three words (DESIGN.md §15, "Values
// are three words"). n holds an int as its two's-complement bits, a float as
// its IEEE-754 bits, and a string's length; p holds a string's data pointer,
// nil for the empty string, so a Value never points one past the end of the
// slab chunk or WAL image it views. A string Value owns nothing: its bytes
// belong to the string it was made from. The zero Value is NULL.
//
// Values are not comparable with ==; use Equal, which compares floats as
// floats (+0 equals -0, NaN equals nothing).
type Value struct {
	_    [0]func()
	p    unsafe.Pointer
	n    uint64
	Kind Kind
}

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, n: uint64(v)} }

// Float returns a float value.
func Float(v float64) Value { return Value{Kind: KindFloat, n: math.Float64bits(v)} }

// Str returns a string value viewing s's bytes.
func Str(s string) Value { return strView(unsafe.StringData(s), len(s)) }

// strView returns a string value viewing the n bytes at data, without
// copying them; an empty string keeps no pointer.
func strView(data *byte, n int) Value {
	if n == 0 {
		return Value{Kind: KindString}
	}
	return Value{Kind: KindString, p: unsafe.Pointer(data), n: uint64(n)}
}

// Null returns the null value.
func Null() Value { return Value{Kind: KindNull} }

// Int returns the value's integer, or 0 if it is not an INT.
func (v Value) Int() int64 {
	if v.Kind != KindInt {
		return 0
	}
	return int64(v.n)
}

// Float returns the value's float, or 0 if it is not a FLOAT.
func (v Value) Float() float64 {
	if v.Kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.n)
}

// Str returns the value's string, or "" if it is not a STRING.
func (v Value) Str() string {
	if v.Kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.p), int(v.n))
}

// String renders the value for reports and debugging.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case KindString:
		return v.Str()
	default:
		return "?"
	}
}

// Equal reports deep equality of two values.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNull:
		return true
	case KindInt:
		return v.n == o.n
	case KindFloat:
		return v.Float() == o.Float()
	case KindString:
		return v.Str() == o.Str()
	}
	return false
}

// Row is one table row: a value per schema column.
type Row []Value

// Clone returns a copy that shares no mutable state.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Equal reports column-wise equality.
func (r Row) Equal(o Row) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if !r[i].Equal(o[i]) {
			return false
		}
	}
	return true
}

// EncodeRow appends a compact binary encoding of the row to dst. The format
// is a uvarint column count followed by tagged values. The destination is
// pre-sized with EncodedRowSize, so encoding into a buffer with enough spare
// capacity performs no allocation and encoding into a short one grows it
// exactly once.
func EncodeRow(dst []byte, r Row) []byte {
	if need := EncodedRowSize(r); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = append(dst, byte(v.Kind))
		switch v.Kind {
		case KindNull:
		case KindInt:
			dst = binary.AppendVarint(dst, int64(v.n))
		case KindFloat:
			dst = binary.BigEndian.AppendUint64(dst, v.n)
		case KindString:
			dst = binary.AppendUvarint(dst, v.n)
			dst = append(dst, v.Str()...)
		default:
			panic(fmt.Sprintf("engine: encode of unknown kind %d", v.Kind))
		}
	}
	return dst
}

// ErrBadRow reports a malformed row encoding.
var ErrBadRow = errors.New("engine: malformed row encoding")

// decodeRow decodes a row produced by EncodeRow, for replay: the row is
// carved from the DB value slab, and its strings are views of buf, not
// copies. buf must therefore
// never change while the row lives, which is the rule DB.Apply states for
// record images.
//
//detlint:hotpath
func (db *DB) decodeRow(buf []byte) (Row, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || n > uint64(len(buf)) { // every value takes at least its tag byte
		return nil, ErrBadRow
	}
	buf = buf[sz:]
	row := db.newRow(int(n))
	for i := uint64(0); i < n; i++ {
		if len(buf) < 1 {
			return nil, ErrBadRow
		}
		kind := Kind(buf[0])
		buf = buf[1:]
		switch kind {
		case KindNull:
			row = append(row, Null())
		case KindInt:
			v, sz := binary.Varint(buf)
			if sz <= 0 {
				return nil, ErrBadRow
			}
			buf = buf[sz:]
			row = append(row, Int(v))
		case KindFloat:
			if len(buf) < 8 {
				return nil, ErrBadRow
			}
			row = append(row, Float(math.Float64frombits(binary.BigEndian.Uint64(buf))))
			buf = buf[8:]
		case KindString:
			l, sz := binary.Uvarint(buf)
			if sz <= 0 || uint64(len(buf)-sz) < l {
				return nil, ErrBadRow
			}
			buf = buf[sz:]
			row = append(row, strView(unsafe.SliceData(buf), int(l)))
			buf = buf[l:]
		default:
			return nil, ErrBadRow
		}
	}
	return row, nil
}

// valSlabChunk sizes the replay row slab: decoded rows are carved out of a
// shared []Value block, amortizing the per-record slice allocation that
// otherwise dominates replay GC cost. Rows are immutable once written, so
// sharing a backing array across delta rows is safe; a chunk is collected
// once every row carved from it has been displaced.
const valSlabChunk = 1024

// newRow returns an empty row with capacity n carved from the DB value slab.
func (db *DB) newRow(n int) Row {
	if cap(db.valSlab)-len(db.valSlab) < n {
		db.growValSlab(n)
	}
	off := len(db.valSlab)
	db.valSlab = db.valSlab[:off+n]
	return Row(db.valSlab[off : off : off+n])
}

// growValSlab starts a fresh value slab with room for n values (an
// oversized row gets a slab of its own).
//
//detlint:coldpath
//go:noinline
func (db *DB) growValSlab(n int) {
	db.valSlab = make([]Value, 0, max(n, valSlabChunk))
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EncodedRowSize returns the encoded byte size of the row in one pass,
// without encoding or allocating. EncodeRow uses it to pre-size its
// destination buffer.
func EncodedRowSize(r Row) int {
	size := uvarintLen(uint64(len(r)))
	for _, v := range r {
		size++ // kind tag
		switch v.Kind {
		case KindNull:
		case KindInt:
			// Varint zig-zag encodes to the uvarint of 2|v| (±).
			size += uvarintLen(v.n<<1 ^ uint64(int64(v.n)>>63))
		case KindFloat:
			size += 8
		case KindString:
			size += uvarintLen(v.n) + int(v.n)
		default:
			panic(fmt.Sprintf("engine: size of unknown kind %d", v.Kind))
		}
	}
	return size
}
