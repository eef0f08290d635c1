package rng

import "errors"

// The range checks of the draws that inline into row generators and
// workload ops panic with prebuilt errors, so the inlined check puts no
// panic-argument conversion on its callers' hot paths.
var (
	errQuickN     = errors.New("rng: Quick.Int63n with non-positive n")
	errQuickRange = errors.New("rng: Quick.IntRange with hi < lo")
	errRange      = errors.New("rng: IntRange with hi < lo")
)

// Quick is a tiny splitmix64 PRNG for deterministic per-row value
// derivation. Data generators materialize millions of synthetic rows on
// demand; seeding a math/rand source per row costs hundreds of
// nanoseconds, while a Quick stream is two multiplications. Quality is
// ample for filler data.
type Quick struct {
	state uint64
}

// QuickOf derives an independent stream from a seed, a table tag, and a
// row id — a pure function, so every materialization of a row is
// identical.
func QuickOf(seed int64, tag uint64, id int64) Quick {
	s := uint64(seed)*0x9E3779B97F4A7C15 ^ tag*0xBF58476D1CE4E5B9 ^ uint64(id)*0x94D049BB133111EB
	q := Quick{state: s}
	q.Next() // decouple from the raw inputs
	return q
}

// Next advances the stream (splitmix64 step).
func (q *Quick) Next() uint64 {
	q.state += 0x9E3779B97F4A7C15
	z := q.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Int63n returns a value in [0, n).
func (q *Quick) Int63n(n int64) int64 {
	if n <= 0 {
		panic(errQuickN)
	}
	return int64(q.Next() % uint64(n))
}

// IntRange returns a value in [lo, hi] inclusive.
func (q *Quick) IntRange(lo, hi int64) int64 {
	if hi < lo {
		panic(errQuickRange)
	}
	return lo + q.Int63n(hi-lo+1)
}

// Float64 returns a value in [0, 1).
func (q *Quick) Float64() float64 {
	return float64(q.Next()>>11) / float64(1<<53)
}

// FillLetters fills b with lowercase letters, one Next()%26 per byte. The
// caller owns b, so filler columns cost no allocation of their own.
func (q *Quick) FillLetters(b []byte) {
	for i := range b {
		b[i] = byte('a' + q.Next()%26)
	}
}
