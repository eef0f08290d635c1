package experiments

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// sharedSessions are the test binary's shared sessions, one per scale
// name. Golden and shape tests at one scale read their cells from it, so a
// cell that two tests read runs once. The determinism tests keep sessions
// of their own, so that each of their legs computes every cell.
var sharedSessions = map[string]*guardedSession{}

// guardedSession is a shared session and a hash of each result in its
// memo. TestMain hashes the results again once every test has run:
// artifacts share them and may only read them.
type guardedSession struct {
	*Session
	sums map[any]uint64
}

// hashStored hashes every result stored in a shared session since the
// last call.
func hashStored() {
	for _, g := range sharedSessions {
		for k, r := range g.cells {
			if _, ok := g.sums[k]; !ok {
				g.sums[k] = deepHash(r)
			}
		}
	}
}

// read returns cells() and hashes what it stored before any artifact
// renders it: a test reads a grid's typed results through read first, then
// renders the artifact, so a renderer that writes to a result fails the
// binary.
func read[R any](cells func() R) R {
	r := cells()
	hashStored()
	return r
}

// shared returns the test binary's session at sc's scale; what the test
// stores in it is hashed when the test ends, if read did not hash it
// first. A test that uses it must not call t.Parallel: a session has no
// lock.
func shared(t *testing.T, sc Scale) *Session {
	t.Helper()
	g := sharedSessions[sc.Name]
	if g == nil {
		g = &guardedSession{NewSession(sc), map[any]uint64{}}
		sharedSessions[sc.Name] = g
	}
	if !reflect.DeepEqual(g.sc, sc) {
		t.Fatalf("the shared %s session runs another scale: %+v", sc.Name, g.sc)
	}
	t.Cleanup(hashStored)
	return g.Session
}

// adopt makes s the shared session at its scale if no test has started
// one yet, so the tests after it read the cells s computed. They are
// hashed now, after s rendered them once.
func adopt(s *Session) {
	if sharedSessions[s.sc.Name] == nil {
		sharedSessions[s.sc.Name] = &guardedSession{s, map[any]uint64{}}
		hashStored()
	}
}

// TestMain fails the binary if a shared session's memoized result changed
// after the test that stored it ended.
func TestMain(m *testing.M) {
	code := m.Run()
	var changed []string
	for name, g := range sharedSessions {
		for k, sum := range g.sums {
			if deepHash(g.cells[k]) != sum {
				changed = append(changed, fmt.Sprintf("%s session: cell %T%+v", name, k, k))
			}
		}
	}
	slices.Sort(changed)
	for _, c := range changed {
		fmt.Fprintf(os.Stderr, "FAIL: a reader changed a memoized result: %s\n", c)
	}
	if len(changed) > 0 && code == 0 {
		code = 1
	}
	os.Exit(code)
}

// deepHash hashes the whole value graph under v. It reads unexported
// fields, follows pointers and interfaces, walks slices, arrays and maps
// (map entries in the order of their keys' hashes), and hashes a pointer
// met before by the order it was first met in, so shared and cyclic
// structure hashes the same on every walk.
func deepHash(v any) uint64 { return valueHash(reflect.ValueOf(v)) }

func valueHash(v reflect.Value) uint64 {
	h := hasher{w: fnv.New64a(), seen: map[visit]int{}}
	h.walk(v)
	return h.w.Sum64()
}

// visit identifies a pointer: the same address may hold values of two types
// (a struct and its first field).
type visit struct {
	p uintptr
	t reflect.Type
}

type hasher struct {
	w    hash.Hash64
	seen map[visit]int
}

func (h *hasher) word(x uint64) {
	h.w.Write(binary.LittleEndian.AppendUint64(nil, x))
}

func (h *hasher) walk(v reflect.Value) {
	if !v.IsValid() {
		h.word(0)
		return
	}
	h.word(uint64(v.Kind()))
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			h.word(1)
		} else {
			h.word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		h.word(v.Uint())
	case reflect.Float32, reflect.Float64:
		h.word(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		h.word(math.Float64bits(real(v.Complex())))
		h.word(math.Float64bits(imag(v.Complex())))
	case reflect.String:
		h.word(uint64(v.Len()))
		h.w.Write([]byte(v.String()))
	case reflect.Array, reflect.Slice:
		h.word(uint64(v.Len()))
		for i := range v.Len() {
			h.walk(v.Index(i))
		}
	case reflect.Struct:
		for i := range v.NumField() {
			h.walk(v.Field(i))
		}
	case reflect.Pointer:
		if v.IsNil() {
			h.word(0)
			return
		}
		at := visit{v.Pointer(), v.Type()}
		if i, ok := h.seen[at]; ok {
			h.word(uint64(i) + 1)
			return
		}
		h.seen[at] = len(h.seen)
		h.walk(v.Elem())
	case reflect.Interface:
		if v.IsNil() {
			h.word(0)
			return
		}
		h.w.Write([]byte(v.Elem().Type().String()))
		h.walk(v.Elem())
	case reflect.Map:
		type entry struct {
			key uint64
			val reflect.Value
		}
		var entries []entry
		for it := v.MapRange(); it.Next(); {
			entries = append(entries, entry{valueHash(it.Key()), it.Value()})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		h.word(uint64(len(entries)))
		for _, e := range entries {
			h.word(e.key)
			h.walk(e.val)
		}
	default: // funcs, channels and unsafe pointers hash by address
		h.word(uint64(v.Pointer()))
	}
}
