package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestValueIsThreeWords pins the layout DESIGN.md §15 describes: a pointer,
// a payload word and the kind, and no == (two string Values viewing
// different bytes must compare by content, which only Equal does).
func TestValueIsThreeWords(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("Value is %d bytes, want 24", got)
	}
	if reflect.TypeOf(Value{}).Comparable() {
		t.Fatal("Value is comparable with ==")
	}
}

// TestValueAccessors: each accessor returns the zero value for any other
// kind, the extreme ints and floats round-trip bit for bit, Equal compares
// floats as floats, an empty string keeps no pointer, and neither the key
// nor the row encoding of a value changed with its layout.
func TestValueAccessors(t *testing.T) {
	for _, v := range []Value{Null(), Int(5), Float(2.5), Str("abc")} {
		if v.Kind != KindInt && v.Int() != 0 {
			t.Errorf("%v.Int() = %d, want 0", v.Kind, v.Int())
		}
		if v.Kind != KindFloat && v.Float() != 0 {
			t.Errorf("%v.Float() = %v, want 0", v.Kind, v.Float())
		}
		if v.Kind != KindString && v.Str() != "" {
			t.Errorf("%v.Str() = %q, want \"\"", v.Kind, v.Str())
		}
	}
	for _, i := range []int64{0, -1, math.MinInt64, math.MaxInt64} {
		if got := Int(i).Int(); got != i {
			t.Errorf("Int(%d).Int() = %d", i, got)
		}
	}
	negZero := math.Copysign(0, -1)
	for _, f := range []float64{negZero, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		if got := Float(f).Float(); math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%v).Float() = %v (bits %x)", f, got, math.Float64bits(got))
		}
	}
	if !Float(0).Equal(Float(negZero)) {
		t.Error("+0 does not equal -0")
	}
	if Float(math.NaN()).Equal(Float(math.NaN())) {
		t.Error("NaN equals NaN")
	}
	s := "hello"
	for _, e := range []Value{Str(""), Str(s[5:]), Str(s[2:2])} {
		if e.p != nil || e.Str() != "" || !e.Equal(Str("")) {
			t.Errorf("empty string value %+v keeps a pointer or reads %q", e, e.Str())
		}
	}

	// A carve that ends its chunk exactly, then an empty one past it.
	var slab StrSlab
	slab.Carve("", strSlabChunk-10)
	copy(slab.Carve("pre", 7), "zzzzzzz")
	last := slab.Str()
	if len(slab.buf) != cap(slab.buf) {
		t.Fatal("the carve does not end its chunk")
	}
	slab.Carve("", 0)
	if empty := slab.Str(); empty.p != nil || empty.Str() != "" {
		t.Errorf("an empty carve at the chunk end keeps a pointer")
	}
	if last.Str() != "prezzzzzzz" {
		t.Errorf("carve at the chunk end reads %q", last.Str())
	}

	for _, c := range []struct {
		v        Value
		key, row string // hex
	}{
		{Null(), "01", "0100"},
		{Int(0), "028000000000000000", "010100"},
		{Int(-1), "027fffffffffffffff", "010101"},
		{Int(math.MinInt64), "020000000000000000", "0101ffffffffffffffffff01"},
		{Int(math.MaxInt64), "02ffffffffffffffff", "0101feffffffffffffffff01"},
		{Float(0), "048000000000000000", "01020000000000000000"},
		{Float(negZero), "047fffffffffffffff", "01028000000000000000"},
		{Float(-2.5), "043ffbffffffffffff", "0102c004000000000000"},
		{Float(math.Inf(1)), "04fff0000000000000", "01027ff0000000000000"},
		{Float(math.Inf(-1)), "04000fffffffffffff", "0102fff0000000000000"},
		{Str(""), "030000", "010300"},
		{Str("a\x00b"), "036100ff620000", "010303610062"},
		{Str("PAID"), "03504149440000", "01030450414944"},
	} {
		if got := hex.EncodeToString(EncodeKey(c.v)); got != c.key {
			t.Errorf("EncodeKey(%v) = %s, want %s", c.v, got, c.key)
		}
		if got := hex.EncodeToString(EncodeRow(nil, Row{c.v})); got != c.row {
			t.Errorf("EncodeRow(%v) = %s, want %s", c.v, got, c.row)
		}
	}
	if got, want := hex.EncodeToString(EncodeKey(Int(7), Str("x"), Float(1.5), Null())),
		"0280000000000000070378000004bff800000000000001"; got != want {
		t.Errorf("composite key = %s, want %s", got, want)
	}
}

func TestValueConstructorsAndString(t *testing.T) {
	if !Int(5).Equal(Value{Kind: KindInt, n: 5}) {
		t.Fatal("Int constructor")
	}
	if Int(5).String() != "5" || Str("x").String() != "x" || Null().String() != "NULL" {
		t.Fatal("value String()")
	}
	if Float(2.5).String() != "2.5" {
		t.Fatalf("float string = %q", Float(2.5).String())
	}
}

func TestValueEqualAcrossKinds(t *testing.T) {
	if Int(1).Equal(Float(1)) {
		t.Fatal("int equals float")
	}
	if Int(1).Equal(Str("1")) {
		t.Fatal("int equals string")
	}
	if !Null().Equal(Null()) {
		t.Fatal("null != null")
	}
}

func TestRowCloneIsIndependent(t *testing.T) {
	r := Row{Int(1), Str("a")}
	c := r.Clone()
	c[0] = Int(2)
	if r[0].Int() != 1 {
		t.Fatal("clone shares backing array")
	}
	if !r.Equal(Row{Int(1), Str("a")}) {
		t.Fatal("row mutated")
	}
	if r.Equal(c) {
		t.Fatal("modified clone equal to original")
	}
	if r.Equal(Row{Int(1)}) {
		t.Fatal("rows of different length equal")
	}
}

func TestRowEncodeDecodeRoundTrip(t *testing.T) {
	r := Row{Int(-42), Float(3.25), Str("hello\x00world"), Null(), Int(1 << 60)}
	enc := EncodeRow(nil, r)
	got, err := decodeRow(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatalf("round trip: %v vs %v", got, r)
	}
	if EncodedRowSize(r) != len(enc) {
		t.Fatal("EncodedRowSize mismatch")
	}
}

func TestRowDecodeErrors(t *testing.T) {
	r := Row{Int(7), Str("abc")}
	enc := EncodeRow(nil, r)
	for i := 1; i < len(enc); i++ {
		if _, err := decodeRow(enc[:i]); err == nil {
			t.Fatalf("truncated decode at %d succeeded", i)
		}
	}
	if _, err := decodeRow([]byte{1, 99}); err == nil {
		t.Fatal("bad kind byte decoded")
	}
}

func TestRowRoundTripProperty(t *testing.T) {
	check := func(i int64, f float64, s string, hasNull bool) bool {
		r := Row{Int(i), Float(f), Str(s)}
		if hasNull {
			r = append(r, Null())
		}
		got, err := decodeRow(EncodeRow(nil, r))
		return err == nil && got.Equal(r)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyRowRoundTrip(t *testing.T) {
	got, err := decodeRow(EncodeRow(nil, Row{}))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty row round trip: %v %v", got, err)
	}
}

// FuzzRowCodec: a row built from the fuzz script survives encode, decode
// and re-encode (Equal, and the same bytes), and the decoder never panics on
// raw bytes; whatever it accepts re-encodes to a fixed point.
func FuzzRowCodec(f *testing.F) {
	for _, r := range sizeRows {
		f.Add(EncodeRow(nil, r))
	}
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xf8, 2, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 3, 2, 'a', 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := rowFromScript(data)
		enc := EncodeRow(nil, r)
		if len(enc) != EncodedRowSize(r) {
			t.Fatalf("EncodedRowSize = %d, EncodeRow wrote %d", EncodedRowSize(r), len(enc))
		}
		dec, err := decodeRow(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", r, err)
		}
		if !dec.Equal(r) && !hasNaN(r) {
			t.Fatalf("round trip %v -> %v", r, dec)
		}
		if re := EncodeRow(nil, dec); !bytes.Equal(re, enc) {
			t.Fatalf("re-encoding %v: %x, want %x", dec, re, enc)
		}

		raw, err := decodeRow(data)
		if err != nil {
			return
		}
		once := EncodeRow(nil, raw)
		again, err := decodeRow(once)
		if err != nil {
			t.Fatalf("decode of a re-encoded row: %v", err)
		}
		if twice := EncodeRow(nil, again); !bytes.Equal(twice, once) {
			t.Fatalf("re-encoding a decoded row: %x, then %x", once, twice)
		}
	})
}

// rowFromScript reads a row from b: a kind byte (mod 4) per value, then
// eight payload bytes for INT and FLOAT, or a length byte and that many
// bytes for STRING. A short payload reads as zero bytes.
func rowFromScript(b []byte) Row {
	var r Row
	for len(b) > 0 {
		k := Kind(b[0] % 4)
		b = b[1:]
		switch k {
		case KindNull:
			r = append(r, Null())
		case KindInt, KindFloat:
			var w [8]byte
			b = b[copy(w[:], b):]
			if k == KindInt {
				r = append(r, Int(int64(binary.BigEndian.Uint64(w[:]))))
			} else {
				r = append(r, Float(math.Float64frombits(binary.BigEndian.Uint64(w[:]))))
			}
		case KindString:
			n := 0
			if len(b) > 0 {
				n, b = min(int(b[0]), len(b)-1), b[1:]
			}
			r = append(r, Str(string(b[:n])))
			b = b[n:]
		}
	}
	return r
}

// hasNaN reports whether r holds a NaN, which Equal never matches.
func hasNaN(r Row) bool {
	for _, v := range r {
		if f := v.Float(); f != f {
			return true
		}
	}
	return false
}

// decodeRow decodes with the replay decoder DB.Apply uses, on a fresh DB.
func decodeRow(buf []byte) (Row, error) { return new(DB).decodeRow(buf) }

func TestKindString(t *testing.T) {
	if KindInt.String() != "INT" || KindNull.String() != "NULL" ||
		KindFloat.String() != "FLOAT" || KindString.String() != "STRING" {
		t.Fatal("kind strings")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Fatal("unknown kind string")
	}
}
