package engine

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndString(t *testing.T) {
	if !Int(5).Equal(Value{Kind: KindInt, I: 5}) {
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
	if r[0].I != 1 {
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
