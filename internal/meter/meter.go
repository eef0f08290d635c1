// Package meter provides virtual-time measurement primitives used by the
// CloudyBench performance collector: step-function series (for allocated
// resources such as vCores over time), bucketed counters (for TPS series),
// and a bounded log-linear latency histogram (for percentile reporting; its
// quantile convention and error bound are stated on Histogram).
//
// All timestamps are time.Duration offsets from the simulation epoch, which
// keeps the package independent of any particular clock implementation.
package meter

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Step is one segment start in a step-function series.
type Step struct {
	At time.Duration
	V  float64
}

// Series is a right-continuous step function over virtual time: the value
// set at time t holds until the next Set. It records, for example, the
// vCores allocated to a node as an autoscaler resizes it.
type Series struct {
	steps []Step
	// lastAt is the time of the most recent Set even when the set was
	// compacted away as a no-op step. Without it, a no-op Set(10, v)
	// followed by Set(5, w) would pass the backwards-time check against
	// the surviving step and silently rewrite history from t=5.
	lastAt time.Duration
}

// NewSeries returns a series with the given initial value from time zero.
func NewSeries(initial float64) *Series {
	return &Series{steps: []Step{{At: 0, V: initial}}}
}

// Set records a new value starting at time at. Times must be non-decreasing;
// setting again at the same instant overwrites.
func (s *Series) Set(at time.Duration, v float64) {
	if at < s.lastAt {
		panic(fmt.Sprintf("meter: Series.Set time going backwards: %v < %v", at, s.lastAt))
	}
	s.lastAt = at
	last := &s.steps[len(s.steps)-1]
	if at == last.At {
		last.V = v
		// An overwrite back to the previous segment's value makes the
		// step redundant: drop it so the compaction invariant (no two
		// adjacent steps with equal values) survives overwrites and
		// Integral/At agree with the steps a caller observes.
		if n := len(s.steps); n >= 2 && s.steps[n-2].V == v {
			s.steps = s.steps[:n-1]
		}
		return
	}
	if last.V == v {
		return // no-op step, keep the series compact
	}
	s.steps = append(s.steps, Step{At: at, V: v})
}

// At returns the series value at time t.
func (s *Series) At(t time.Duration) float64 {
	// Binary search for the last step with At <= t.
	i := sort.Search(len(s.steps), func(i int) bool { return s.steps[i].At > t })
	if i == 0 {
		return s.steps[0].V
	}
	return s.steps[i-1].V
}

// Integral returns the integral of the series over [from, to) in
// value·seconds.
func (s *Series) Integral(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	var total float64
	for i := 0; i < len(s.steps); i++ {
		segStart := s.steps[i].At
		segEnd := time.Duration(math.MaxInt64)
		if i+1 < len(s.steps) {
			segEnd = s.steps[i+1].At
		}
		lo, hi := segStart, segEnd
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			total += s.steps[i].V * (hi - lo).Seconds()
		}
	}
	return total
}

// Max returns the maximum value attained in [from, to].
func (s *Series) Max(from, to time.Duration) float64 {
	max := s.At(from)
	for _, st := range s.steps {
		if st.At > to {
			break
		}
		if st.At >= from && st.V > max {
			max = st.V
		}
	}
	return max
}

// Min returns the minimum value attained in [from, to].
func (s *Series) Min(from, to time.Duration) float64 {
	min := s.At(from)
	for _, st := range s.steps {
		if st.At > to {
			break
		}
		if st.At >= from && st.V < min {
			min = st.V
		}
	}
	return min
}

// Steps returns a copy of the raw step list.
func (s *Series) Steps() []Step {
	out := make([]Step, len(s.steps))
	copy(out, s.steps)
	return out
}

// Sample returns the series sampled every interval over [from, to), one
// value per bucket, evaluated at each bucket start. Used to render
// Figure 9-style allocation timelines.
func (s *Series) Sample(from, to, interval time.Duration) []float64 {
	if interval <= 0 || to <= from {
		return nil
	}
	var out []float64
	for t := from; t < to; t += interval {
		out = append(out, s.At(t))
	}
	return out
}

// Counter counts events into fixed-width virtual-time buckets, the basis of
// every TPS measurement in the testbed.
type Counter struct {
	bucket  time.Duration
	counts  []int64
	total   int64
	firstAt time.Duration
	lastAt  time.Duration
	any     bool
}

// NewCounter returns a counter with the given bucket width (e.g. 1 second
// buckets for per-second TPS).
func NewCounter(bucket time.Duration) *Counter {
	if bucket <= 0 {
		panic("meter: non-positive Counter bucket width")
	}
	return &Counter{bucket: bucket}
}

// Add records n events at time at.
func (c *Counter) Add(at time.Duration, n int64) {
	idx := int(at / c.bucket)
	for len(c.counts) <= idx {
		c.counts = append(c.counts, 0)
	}
	c.counts[idx] += n
	c.total += n
	if !c.any || at < c.firstAt {
		c.firstAt = at
	}
	if !c.any || at > c.lastAt {
		c.lastAt = at
	}
	c.any = true
}

// Total returns the total event count.
func (c *Counter) Total() int64 { return c.total }

// CounterSnapshot is a point-in-time capture of a Counter (warm-up
// memoization).
type CounterSnapshot struct {
	bucket  time.Duration
	counts  []int64
	total   int64
	firstAt time.Duration
	lastAt  time.Duration
	any     bool
}

// Snapshot captures the counter's current state.
func (c *Counter) Snapshot() CounterSnapshot {
	return CounterSnapshot{
		bucket:  c.bucket,
		counts:  append([]int64(nil), c.counts...),
		total:   c.total,
		firstAt: c.firstAt,
		lastAt:  c.lastAt,
		any:     c.any,
	}
}

// Restore resets the counter to a snapshot. The bucket slice is copied so
// counters restored from one snapshot accumulate independently.
func (c *Counter) Restore(snap CounterSnapshot) {
	c.bucket = snap.bucket
	c.counts = append(c.counts[:0:0], snap.counts...)
	c.total = snap.total
	c.firstAt = snap.firstAt
	c.lastAt = snap.lastAt
	c.any = snap.any
}

// CountIn returns the number of events recorded in [from, to), counted at
// bucket granularity (partial buckets are attributed by bucket start).
func (c *Counter) CountIn(from, to time.Duration) int64 {
	if to <= from {
		return 0
	}
	lo := int(from / c.bucket)
	hi := int((to - 1) / c.bucket)
	var total int64
	for i := lo; i <= hi && i < len(c.counts); i++ {
		if i >= 0 {
			total += c.counts[i]
		}
	}
	return total
}

// Rate returns the average events per second over [from, to).
func (c *Counter) Rate(from, to time.Duration) float64 {
	if to <= from {
		return 0
	}
	return float64(c.CountIn(from, to)) / (to - from).Seconds()
}

// Buckets returns per-bucket rates (events per second) for buckets that
// intersect [from, to).
func (c *Counter) Buckets(from, to time.Duration) []float64 {
	if to <= from {
		return nil
	}
	lo := int(from / c.bucket)
	hi := int((to - 1) / c.bucket)
	out := make([]float64, 0, hi-lo+1)
	perSec := c.bucket.Seconds()
	for i := lo; i <= hi; i++ {
		var n int64
		if i >= 0 && i < len(c.counts) {
			n = c.counts[i]
		}
		out = append(out, float64(n)/perSec)
	}
	return out
}

// Reservoir and NewReservoir exist only for the benchmark's compile
// contract (benchmark/README.md, "What the benchmark compiles against"): its
// meter probe still names them. Nothing else in the module may use them, and
// the benchmark's next revision (ROADMAP item 7(c)) deletes both.
type Reservoir = Histogram

// NewReservoir returns an empty Histogram under its old name.
func NewReservoir() *Reservoir { return &Reservoir{} }
