package meter

import (
	"math"
	"math/bits"
	"time"
)

// Histogram bucket layout: durations below 16 ns land in one of 16 exact
// unit buckets; above that, each power of two is split into 16 linear
// sub-buckets keyed by the four bits after the leading one. The layout is
// fixed at compile time, so histograms recorded on different runs (or
// different GOMAXPROCS settings) are mergeable bucket-for-bucket and a
// given sample stream always produces identical counts — integer-only
// arithmetic, no floating-point accumulation order to diverge.
const (
	histSubBits  = 4
	histSubCount = 1 << histSubBits // 16 linear sub-buckets per power of two
	histBuckets  = (64 - (histSubBits - 1)) * histSubCount
)

// Histogram is a fixed-bucket log-linear histogram of virtual-time
// durations, the testbed's one latency distribution: the collector's
// commit latencies, the replication streams' per-DML lags and the tracer's
// span lengths. The zero value is ready to use. Memory is bounded
// regardless of sample count, the state is deterministic across runs, and
// two histograms merge without re-ordering samples.
//
// Quantile convention: nearest-rank. The q-quantile of n samples is the
// sample at rank ceil(q*n) (1-based), reported as the lower bound of the
// bucket that holds it, clamped to the exact observed min and max; q <= 0
// returns the min and q >= 1 the max. For a true sample of 16 ns or more
// the error is 0 <= true - reported < true/16; samples below 16 ns are
// exact. Count, Sum, Min, Max and Mean are exact: Mean is the integer
// sum/n.
type Histogram struct {
	counts [histBuckets]int64
	n      int64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// bucketOf maps a non-negative duration to its bucket index.
func bucketOf(d time.Duration) int {
	v := uint64(d)
	if v < histSubCount {
		return int(v) // exact buckets for tiny values
	}
	exp := bits.Len64(v) - 1 // position of the leading one, >= histSubBits
	sub := (v >> (uint(exp) - histSubBits)) & (histSubCount - 1)
	return (exp-(histSubBits-1))*histSubCount + int(sub)
}

// bucketLow returns the smallest duration that maps to bucket i.
func bucketLow(i int) time.Duration {
	if i < histSubCount {
		return time.Duration(i)
	}
	exp := uint(i/histSubCount) + histSubBits - 1
	sub := uint64(i % histSubCount)
	return time.Duration(uint64(1)<<exp | sub<<(exp-histSubBits))
}

// Add records one duration. Negative durations clamp to zero.
//
//detlint:hotpath
func (h *Histogram) Add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	if h.n == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.n++
	h.sum += d
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.n }

// Equal reports whether two histograms hold identical state
// bucket-for-bucket, including count, sum, min, and max — the equality the
// merge-vs-whole-run property tests assert. A nil histogram equals an empty
// one.
func (h *Histogram) Equal(o *Histogram) bool {
	if h == nil {
		h = &Histogram{}
	}
	if o == nil {
		o = &Histogram{}
	}
	if h.n != o.n || h.sum != o.sum || h.min != o.min || h.max != o.max {
		return false
	}
	return h.counts == o.counts
}

// Sum returns the total recorded duration.
func (h *Histogram) Sum() time.Duration { return h.sum }

// Mean returns the average duration, or zero with no samples.
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Quantile returns the q-quantile (0 <= q <= 1) by the nearest-rank
// convention stated on Histogram. With no samples it returns zero.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := int64(math.Ceil(q*float64(h.n))) - 1
	if rank < 0 {
		rank = 0
	}
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.counts[i]
		if seen > rank {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge folds o's samples into h bucket-for-bucket.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}
