package engine

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Key is a memcomparable encoding of one or more values: bytes.Compare on
// encoded keys agrees with value-wise comparison. This lets one B-tree type
// serve both CloudyBench's dense int64 primary keys and TPC-C's composite
// (warehouse, district, id) keys.
type Key []byte

// Key encoding tags, chosen so NULL < INT < STRING < FLOAT in encoded
// order. Cross-kind order is arbitrary but fixed: columns are homogeneous,
// so ordering only ever compares values of one kind.
const (
	tagNull   byte = 0x01
	tagInt    byte = 0x02
	tagString byte = 0x03
	tagFloat  byte = 0x04
)

// floatKeyBits maps an IEEE-754 double to a uint64 whose unsigned order
// matches numeric order: negative values flip every bit, non-negative
// values flip only the sign bit.
func floatKeyBits(f float64) uint64 {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		return ^bits
	}
	return bits | (1 << 63)
}

// AppendKey appends the memcomparable encoding of vals to dst and returns
// the extended slice. It sizes the result once, so encoding into a buffer
// with enough spare capacity allocates nothing and a short (or nil) one grows
// exactly once. dst is caller-owned scratch: nothing in the engine retains a
// key it is handed (see DESIGN.md §15, "Who owns which buffer").
//
//detlint:hotpath
func AppendKey(dst []byte, vals ...Value) Key {
	need := 0
	for i := range vals {
		need += keyValueSize(vals[i])
	}
	dst = growKey(dst, need)
	for i := range vals {
		dst = appendKeyValue(dst, vals[i])
	}
	return dst
}

// AppendIntKey appends a single int64 primary key (the common CloudyBench
// case) to dst.
//
//detlint:hotpath
func AppendIntKey(dst []byte, id int64) Key {
	dst = growKey(dst, 9)
	dst = append(dst, tagInt)
	// Flip the sign bit so negative < positive in unsigned order.
	return binary.BigEndian.AppendUint64(dst, uint64(id)^(1<<63))
}

// EncodeKey builds a memcomparable key from the given values.
func EncodeKey(vals ...Value) Key { return AppendKey(nil, vals...) }

// growKey returns dst with room for need more bytes, growing at most once.
func growKey(dst []byte, need int) []byte {
	if cap(dst)-len(dst) >= need {
		return dst
	}
	return grownKey(dst, need)
}

// grownKey copies dst into a fresh key with room for need more bytes. Only a
// nil or short dst gets here: steady-state callers pass scratch with
// capacity, and it is out of line so that their inlined growKey carries no
// allocation.
//
//detlint:coldpath
//go:noinline
func grownKey(dst []byte, need int) []byte {
	grown := make([]byte, len(dst), len(dst)+need)
	copy(grown, dst)
	return grown
}

// keyValueSize returns the encoded key size of one value.
func keyValueSize(v Value) int {
	switch v.Kind {
	case KindNull:
		return 1
	case KindInt, KindFloat:
		return 9
	case KindString:
		n := 3 // tag + two-byte terminator
		s := v.Str()
		for i := 0; i < len(s); i++ {
			n++
			if s[i] == 0x00 {
				n++
			}
		}
		return n
	default:
		panic(fmt.Sprintf("engine: cannot encode kind %v in key", v.Kind))
	}
}

// appendKeyValue appends the encoding of one value; dst has room for it.
func appendKeyValue(k []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		k = append(k, tagNull)
	case KindInt:
		k = append(k, tagInt)
		// Flip the sign bit so negative < positive in unsigned order.
		k = binary.BigEndian.AppendUint64(k, v.n^(1<<63))
	case KindString:
		k = append(k, tagString)
		// Escape 0x00 as 0x00 0xFF and terminate with 0x00 0x00 so
		// prefixes order correctly.
		s := v.Str()
		for i := 0; i < len(s); i++ {
			c := s[i]
			k = append(k, c)
			if c == 0x00 {
				k = append(k, 0xFF)
			}
		}
		k = append(k, 0x00, 0x00)
	case KindFloat:
		k = append(k, tagFloat)
		k = binary.BigEndian.AppendUint64(k, floatKeyBits(v.Float()))
	default:
		panic(fmt.Sprintf("engine: cannot encode kind %v in key", v.Kind))
	}
	return k
}

// DecodeKeyValue decodes the first value of a key, returning the value and
// the number of bytes it occupied. ok is false for malformed keys.
func DecodeKeyValue(k Key) (Value, int, bool) {
	if len(k) == 0 {
		return Value{}, 0, false
	}
	switch k[0] {
	case tagNull:
		return Null(), 1, true
	case tagInt:
		if len(k) < 9 {
			return Value{}, 0, false
		}
		return Int(int64(binary.BigEndian.Uint64(k[1:]) ^ (1 << 63))), 9, true
	case tagFloat:
		if len(k) < 9 {
			return Value{}, 0, false
		}
		bits := binary.BigEndian.Uint64(k[1:])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return Float(math.Float64frombits(bits)), 9, true
	case tagString:
		var s []byte
		i := 1
		for {
			if i >= len(k) {
				return Value{}, 0, false
			}
			if k[i] == 0x00 {
				if i+1 < len(k) && k[i+1] == 0xFF {
					s = append(s, 0x00)
					i += 2
					continue
				}
				if i+1 >= len(k) {
					return Value{}, 0, false
				}
				return Str(string(s)), i + 2, true
			}
			s = append(s, k[i])
			i++
		}
	default:
		return Value{}, 0, false
	}
}

// IntKey encodes a single int64 primary key (the common CloudyBench case).
func IntKey(id int64) Key { return AppendIntKey(nil, id) }

// DecodeIntKey extracts the int64 from a single-column integer key. It
// reports ok=false for keys of any other shape.
func DecodeIntKey(k Key) (int64, bool) {
	if len(k) != 9 || k[0] != tagInt {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(k[1:]) ^ (1 << 63)), true
}

// String renders the key for debugging.
func (k Key) String() string {
	out := ""
	buf := []byte(k)
	for len(buf) > 0 {
		if out != "" {
			out += "/"
		}
		switch buf[0] {
		case tagNull:
			out += "NULL"
			buf = buf[1:]
		case tagFloat:
			v, n, ok := DecodeKeyValue(Key(buf))
			if !ok {
				return fmt.Sprintf("%x", []byte(k))
			}
			out += v.String()
			buf = buf[n:]
		case tagInt:
			if len(buf) < 9 {
				return fmt.Sprintf("%x", []byte(k))
			}
			out += fmt.Sprint(int64(binary.BigEndian.Uint64(buf[1:9]) ^ (1 << 63)))
			buf = buf[9:]
		case tagString:
			buf = buf[1:]
			var s []byte
			for {
				if len(buf) == 0 {
					return fmt.Sprintf("%x", []byte(k))
				}
				if buf[0] == 0x00 {
					if len(buf) >= 2 && buf[1] == 0xFF {
						s = append(s, 0x00)
						buf = buf[2:]
						continue
					}
					buf = buf[2:]
					break
				}
				s = append(s, buf[0])
				buf = buf[1:]
			}
			out += string(s)
		default:
			return fmt.Sprintf("%x", []byte(k))
		}
	}
	return out
}
