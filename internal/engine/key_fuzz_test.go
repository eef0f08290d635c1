package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// refEncodeKey is the key encoder as it stood before AppendKey: grow a nil
// slice value by value. It is the oracle the append form must agree with.
func refEncodeKey(vals ...Value) Key {
	var k []byte
	for _, v := range vals {
		switch v.Kind {
		case KindNull:
			k = append(k, tagNull)
		case KindInt:
			k = append(k, tagInt)
			k = binary.BigEndian.AppendUint64(k, uint64(v.Int())^(1<<63))
		case KindString:
			k = append(k, tagString)
			for i := 0; i < len(v.Str()); i++ {
				c := v.Str()[i]
				k = append(k, c)
				if c == 0x00 {
					k = append(k, 0xFF)
				}
			}
			k = append(k, 0x00, 0x00)
		case KindFloat:
			k = append(k, tagFloat)
			k = binary.BigEndian.AppendUint64(k, floatKeyBits(v.Float()))
		}
	}
	return k
}

// FuzzAppendKey checks, for arbitrary values and an arbitrary dirty
// destination, that AppendKey(dst[:n], vals...) is dst[:n] followed by the
// reference encoding, leaves dst[:n] alone, allocates only when dst is too
// short, and round-trips value by value through DecodeKeyValue.
func FuzzAppendKey(f *testing.F) {
	f.Add(int64(42), 1.5, "PAID", uint8(0b111), []byte("dirty prefix"), uint8(5))
	f.Add(int64(math.MinInt64), math.Inf(-1), "a\x00b\x00", uint8(0b1111), []byte{}, uint8(0))
	f.Add(int64(-1), math.Copysign(0, -1), "", uint8(0b0100), bytes.Repeat([]byte{0xFF}, 64), uint8(64))
	f.Fuzz(func(t *testing.T, i int64, fl float64, s string, which uint8, dirty []byte, n uint8) {
		var vals []Value
		if which&1 != 0 {
			vals = append(vals, Int(i))
		}
		if which&2 != 0 && fl == fl { // NaN has no place in an ordered key
			vals = append(vals, Float(fl))
		}
		if which&4 != 0 {
			vals = append(vals, Str(s))
		}
		if which&8 != 0 {
			vals = append(vals, Null())
		}
		keep := int(n)
		if keep > len(dirty) {
			keep = len(dirty)
		}
		prefix := append([]byte(nil), dirty[:keep]...)
		want := append(append([]byte(nil), prefix...), refEncodeKey(vals...)...)

		dst := append([]byte(nil), dirty...) // spare capacity holds garbage
		got := AppendKey(dst[:keep], vals...)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendKey = %x, want %x", []byte(got), want)
		}
		if !bytes.Equal(dst[:keep], prefix) {
			t.Fatalf("AppendKey disturbed the prefix it was appending to")
		}
		if len(want) > 0 && len(want) <= cap(dst) && &got[0] != &dst[:1][0] {
			t.Fatalf("AppendKey reallocated a destination with room (%d needed, cap %d)", len(want), cap(dst))
		}
		if !bytes.Equal(EncodeKey(vals...), refEncodeKey(vals...)) {
			t.Fatalf("EncodeKey diverged from the reference")
		}
		rest := got[keep:]
		for _, v := range vals {
			dec, size, ok := DecodeKeyValue(rest)
			if !ok || !dec.Equal(v) {
				t.Fatalf("round trip: got %v ok=%v, want %v", dec, ok, v)
			}
			rest = rest[size:]
		}
		if len(rest) != 0 {
			t.Fatalf("%d bytes left after decoding every value", len(rest))
		}
		if which == 1 {
			if k := AppendIntKey(dst[:keep], i); !bytes.Equal(k, want) {
				t.Fatalf("AppendIntKey = %x, want %x", []byte(k), want)
			}
		}
	})
}

func TestEncodeKeyAllocatesOnce(t *testing.T) {
	if got := testing.AllocsPerRun(1000, func() { sinkKey = IntKey(7) }); got != 1 {
		t.Errorf("IntKey: %v allocs, want 1", got)
	}
	if got := testing.AllocsPerRun(1000, func() { sinkKey = EncodeKey(Int(3), Str("abc"), Float(2)) }); got != 1 {
		t.Errorf("EncodeKey: %v allocs, want 1", got)
	}
	buf := make([]byte, 0, 64)
	if got := testing.AllocsPerRun(1000, func() { sinkKey = AppendKey(buf[:0], Int(3), Str("abc"), Float(2)) }); got != 0 {
		t.Errorf("AppendKey into scratch: %v allocs, want 0", got)
	}
	s := testSchema()
	row := Row{Int(42), Str("PAID")}
	if got := testing.AllocsPerRun(1000, func() { sinkKey = s.appendKeyOf(nil, row) }); got != 1 {
		t.Errorf("appendKeyOf: %v allocs, want 1", got)
	}
}

var sinkKey Key
