// Package rng provides deterministic random sources and the access
// distributions used by CloudyBench workloads: uniform and latest-k
// substitution-parameter choice (paper §II-B), and the Pareto proportions
// that seed default elasticity patterns (paper §II-C).
//
// Every source derives from an explicit seed so that simulation runs replay
// identically. Child sources are split off by name, letting each worker,
// tenant, or generator own an independent stream without coordination.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Source is a deterministic random stream.
type Source struct {
	r *rand.Rand
}

// New returns a source seeded with the given seed.
func New(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Child derives an independent source from this source's seed and a name.
// The derivation is a pure function of (seed, name), so the same split
// always yields the same stream.
func (s *Source) Child(name string) *Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	return New(int64(h.Sum64()) ^ s.r.Int63())
}

// ChildOf derives a source from a seed and a name without consuming any
// randomness from a parent stream.
func ChildOf(seed int64, name string) *Source {
	h := fnv.New64a()
	h.Write([]byte(name))
	return New(seed ^ int64(h.Sum64()))
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Int63n returns a uniform int64 in [0, n). n must be positive.
func (s *Source) Int63n(n int64) int64 { return s.r.Int63n(n) }

// IntRange returns a uniform integer in [lo, hi] inclusive.
func (s *Source) IntRange(lo, hi int64) int64 {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.r.Int63n(hi-lo+1)
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.r.Float64() < p }

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r.Shuffle(n, swap) }

// Letters returns a random fixed-length string over [a-z], used by the data
// generator for filler columns.
func (s *Source) Letters(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + s.r.Intn(26))
	}
	return string(b)
}

// PickWeighted returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. All weights must be non-negative with a
// positive sum.
func (s *Source) PickWeighted(weights []float64) int {
	var sum float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		sum += w
	}
	if sum <= 0 {
		panic("rng: weights sum to zero")
	}
	x := s.r.Float64() * sum
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Exp returns an exponentially distributed duration-like value with the
// given mean (used for arrival jitter).
func (s *Source) Exp(mean float64) float64 { return s.r.ExpFloat64() * mean }

// Dist chooses substitution parameters over a key space [1, n]. It is the
// interface behind the paper's uniform and latest-k access distributions.
type Dist interface {
	// Next returns a key in [1, max] for a key space that currently holds
	// max keys (max grows as the workload inserts).
	Next(max int64) int64
	// Name identifies the distribution for reports and configs.
	Name() string
}

// Uniform chooses keys uniformly over the whole key space.
type Uniform struct{ Src *Source }

// Next implements Dist.
func (u *Uniform) Next(max int64) int64 {
	if max <= 0 {
		return 1
	}
	return 1 + u.Src.Int63n(max)
}

// Name implements Dist.
func (u *Uniform) Name() string { return "uniform" }

// Latest implements the paper's latest-k distribution: accesses concentrate
// on the K most recently inserted keys ("the more skewed the distribution
// is, the more likely the fresh data is read"). K=10 gives the latest-10
// pattern of §II-B.
type Latest struct {
	Src *Source
	K   int64
}

// Next implements Dist.
func (l *Latest) Next(max int64) int64 {
	if max <= 0 {
		return 1
	}
	k := l.K
	if k <= 0 {
		k = 10
	}
	if k > max {
		k = max
	}
	return max - l.Src.Int63n(k)
}

// Name implements Dist.
func (l *Latest) Name() string { return "latest" }

// ParetoProportions returns n proportions that follow a Pareto (80/20-style)
// decay and sum to 1. CloudyBench uses these as the default slot proportions
// for elasticity patterns when the user does not specify them (§II-C).
func ParetoProportions(n int, alpha float64) []float64 {
	if n <= 0 {
		return nil
	}
	if alpha <= 0 {
		alpha = 1.16 // classic 80/20 shape
	}
	out := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		out[i] = 1 / math.Pow(float64(i+1), alpha)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
