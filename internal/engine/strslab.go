package engine

import "unsafe"

// StrSlab is an append-only chunked byte arena for generated string
// columns. Carve reserves room at its tail and hands the caller the bytes to
// fill; Str then returns the carve as a string Value that views the slab
// instead of copying it. Carved bytes are never written again (the rule
// DB.stable follows for WAL payloads), so a row may keep such a string for
// as long as it lives, and a chunk is collected once every string carved
// from it is gone. A slab has one owner — a row generator of one DB, or a
// client worker — and so is only ever touched by one simulation.
type StrSlab struct {
	buf []byte // the newest chunk; everything below len(buf) is carved
	at  int    // where the newest carve starts in buf
}

// strSlabChunk bounds a slab chunk, so a retained string pins at most
// 4 KiB.
const strSlabChunk = 4 << 10

// Carve appends prefix and n more bytes to the slab and returns those n
// bytes for the caller to fill before it calls Str.
//
//detlint:hotpath
func (s *StrSlab) Carve(prefix string, n int) []byte {
	need := len(prefix) + n
	s.buf = reserve(s.buf, need, strSlabChunk)
	s.at = len(s.buf)
	s.buf = append(s.buf, prefix...)[:s.at+need]
	return s.buf[s.at+len(prefix) : s.at+need : s.at+need]
}

// Str returns the newest carve — its prefix and the bytes the caller
// filled — as a string Value viewing the slab.
func (s *StrSlab) Str() Value {
	b := s.buf[s.at:]
	return strView(unsafe.SliceData(b), len(b))
}
