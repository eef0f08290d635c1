// Package rng provides deterministic random sources and the access
// distributions used by CloudyBench workloads: uniform and latest-k
// substitution-parameter choice (paper §II-B).
//
// Every source derives from an explicit seed so that simulation runs replay
// identically. Child sources are split off by name, letting each worker,
// tenant, or generator own an independent stream without coordination.
package rng

import (
	"hash/fnv"
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
		panic(errRange)
	}
	return lo + s.r.Int63n(hi-lo+1)
}

// Float64 returns a uniform float in [0, 1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// FillLetters fills b with random letters over [a-z], one Intn(26) per
// byte, for the workloads' filler columns.
func (s *Source) FillLetters(b []byte) {
	for i := range b {
		b[i] = byte('a' + s.r.Intn(26))
	}
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
