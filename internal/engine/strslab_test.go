package engine

import (
	"runtime"
	"testing"
)

// TestStrSlabCarvesImmutableViews fills carves of every length from 0 to an
// oversized one, keeps every string, and checks after a garbage collection
// that none was rewritten by a later carve, that a carve's fill slice ends
// where the carve does, and that small carves share 4 KiB chunks.
func TestStrSlabCarvesImmutableViews(t *testing.T) {
	var s StrSlab
	var kept []Value
	var want []string
	fill := func(b []byte, i int) {
		for j := range b {
			b[j] = byte('a' + (i+j)%26)
		}
	}
	for i := 0; i < 10_000; i++ {
		n := i % 40
		if i == 5000 {
			n = 3 * strSlabChunk // outgrows a chunk: a chunk of its own
		}
		b := s.Carve("p-", n)
		if len(b) != n || cap(b) != n {
			t.Fatalf("carve %d: len %d cap %d, want %d", i, len(b), cap(b), n)
		}
		fill(b, i)
		kept = append(kept, s.Str())
		exp := make([]byte, n)
		fill(exp, i)
		want = append(want, "p-"+string(exp))
	}
	runtime.GC()
	for i, v := range kept {
		if v.Kind != KindString || v.Str() != want[i] {
			t.Fatalf("carve %d became %q, want %q", i, v.Str(), want[i])
		}
	}
	if c := cap(s.buf); c != strSlabChunk {
		t.Fatalf("chunk capacity %d, want %d", c, strSlabChunk)
	}
	var name string
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1000; i++ {
			copy(s.Carve("cust-", 8), "abcdefgh")
			name = s.Str().Str()
		}
	})
	if allocs > 4 { // 13 KB of names: four 4 KiB chunks
		t.Errorf("1000 carves of 13 bytes: %v allocations, want <= 4", allocs)
	}
	if name != "cust-abcdefgh" {
		t.Fatalf("last carve %q", name)
	}
}
