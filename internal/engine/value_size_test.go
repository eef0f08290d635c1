package engine

import (
	"strings"
	"testing"
)

// sizeRows covers every value kind and the varint boundary cases that a
// size-walk bug would get wrong.
var sizeRows = []Row{
	{},
	{Null()},
	{Int(0)},
	{Int(1), Int(-1)},
	{Int(63), Int(64), Int(-64), Int(-65)}, // zig-zag uvarint length boundaries
	{Int(1<<62 - 1), Int(-(1 << 62))},
	{Int(9223372036854775807), Int(-9223372036854775808)},
	{Float(0), Float(3.141592653589793), Float(-1e300)},
	{Str("")},
	{Str("a"), Str("hello, world")},
	{Str(strings.Repeat("x", 300))}, // length needs a 2-byte uvarint
	{Int(42), Str("order"), Float(9.99), Null(), Str(""), Int(-7)},
}

// TestEncodedRowSizeMatchesEncodeRow pins the contract that lets EncodeRow
// pre-size its destination in one allocation: the size walk must agree with
// the bytes actually emitted, for every kind and varint width.
func TestEncodedRowSizeMatchesEncodeRow(t *testing.T) {
	for i, r := range sizeRows {
		enc := EncodeRow(nil, r)
		if got, want := EncodedRowSize(r), len(enc); got != want {
			t.Errorf("row %d: EncodedRowSize=%d but EncodeRow emitted %d bytes", i, got, want)
		}
		dec, err := decodeRow(enc)
		if err != nil {
			t.Fatalf("row %d: decode: %v", i, err)
		}
		if len(dec) != len(r) {
			t.Fatalf("row %d: round-trip length %d != %d", i, len(dec), len(r))
		}
		for j := range r {
			if !dec[j].Equal(r[j]) {
				t.Errorf("row %d col %d: round-trip %v != %v", i, j, dec[j], r[j])
			}
		}
	}
}

// TestEncodeRowAllocationDiscipline is the perf regression guard: encoding
// into a buffer with enough spare capacity must not allocate at all, and
// encoding into an empty destination must grow it exactly once (the
// pre-sized grow), never incrementally.
func TestEncodeRowAllocationDiscipline(t *testing.T) {
	r := Row{Int(12345), Str("warehouse-item-payload"), Float(2.5), Null(),
		Str(strings.Repeat("y", 200))}
	need := EncodedRowSize(r)

	buf := make([]byte, 0, need)
	if n := testing.AllocsPerRun(100, func() {
		out := EncodeRow(buf, r)
		if len(out) != need {
			t.Fatalf("encoded %d bytes, want %d", len(out), need)
		}
	}); n != 0 {
		t.Errorf("encode into pre-sized buffer: %v allocs/op, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		out := EncodeRow(nil, r)
		if len(out) != need {
			t.Fatalf("encoded %d bytes, want %d", len(out), need)
		}
	}); n != 1 {
		t.Errorf("encode into nil destination: %v allocs/op, want exactly 1", n)
	}
}
