package meter

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestHistogramBucketRoundTrip(t *testing.T) {
	// bucketLow(bucketOf(d)) must be the largest bucket lower bound <= d,
	// and bucketOf must be monotone non-decreasing in d.
	prev := -1
	for _, d := range []time.Duration{
		0, 1, 15, 16, 17, 31, 32, 100, time.Microsecond, 1023, 1024,
		time.Millisecond, time.Second, time.Hour,
		time.Duration(1<<62) + 12345,
	} {
		i := bucketOf(d)
		if lo := bucketLow(i); lo > d {
			t.Fatalf("bucketLow(bucketOf(%v)) = %v > %v", d, lo, d)
		}
		if i < prev {
			t.Fatalf("bucketOf not monotone at %v: %d < %d", d, i, prev)
		}
		prev = i
	}
}

func TestHistogramQuantilesAndClamping(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Add(ms(i))
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(0); got != ms(1) {
		t.Fatalf("p0 = %v, want exact min 1ms", got)
	}
	if got := h.Quantile(1); got != ms(100) {
		t.Fatalf("p100 = %v, want exact max 100ms", got)
	}
	// Bucketed p50 must land within one sub-bucket of the true median: the
	// log-linear layout guarantees relative error below 1/16.
	p50 := h.Quantile(0.5)
	if p50 < ms(47) || p50 > ms(53) {
		t.Fatalf("p50 = %v, want ~50ms (within bucket resolution)", p50)
	}
	if got := h.Mean(); got != ms(101)/2 {
		t.Fatalf("mean = %v, want 50.5ms", got)
	}
	h.Add(-time.Second) // negative clamps to zero
	if got := h.Quantile(0); got != 0 {
		t.Fatalf("p0 after negative add = %v, want 0", got)
	}
}

func TestHistogramMergeEqualsCombined(t *testing.T) {
	var a, b, both Histogram
	for i := 1; i <= 50; i++ {
		a.Add(ms(i))
		both.Add(ms(i))
	}
	for i := 51; i <= 100; i++ {
		b.Add(ms(i))
		both.Add(ms(i))
	}
	a.Merge(&b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() {
		t.Fatalf("merge count/sum = %d/%v, want %d/%v", a.Count(), a.Sum(), both.Count(), both.Sum())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Fatalf("merge Quantile(%v) = %v, combined = %v", q, a.Quantile(q), both.Quantile(q))
		}
	}
	// Merging an empty histogram is a no-op.
	var empty Histogram
	before := a.Count()
	a.Merge(&empty)
	a.Merge(nil)
	if a.Count() != before {
		t.Fatal("merging empty/nil changed the histogram")
	}
}

func TestHistogramMergeEdgeCases(t *testing.T) {
	// Merging a zero-value histogram into a populated one must not clobber
	// min: the empty histogram's min field is 0, which is NOT a sample.
	var a Histogram
	a.Add(ms(10))
	a.Add(ms(20))
	var empty Histogram
	a.Merge(&empty)
	if a.Min() != ms(10) || a.Max() != ms(20) || a.Count() != 2 {
		t.Fatalf("merge(empty) clobbered state: min=%v max=%v n=%d", a.Min(), a.Max(), a.Count())
	}
	a.Merge(nil)
	if a.Min() != ms(10) || a.Count() != 2 {
		t.Fatalf("merge(nil) clobbered state: min=%v n=%d", a.Min(), a.Count())
	}

	// Merging INTO a zero-value histogram must adopt the source's min/max
	// exactly — including a genuine zero-duration minimum.
	var b Histogram
	var src Histogram
	src.Add(0)
	src.Add(ms(5))
	b.Merge(&src)
	if b.Min() != 0 || b.Max() != ms(5) || b.Count() != 2 {
		t.Fatalf("merge into empty: min=%v max=%v n=%d", b.Min(), b.Max(), b.Count())
	}
	// And a source whose min is above the destination's must not lower it...
	var c Histogram
	c.Add(ms(1))
	var hi Histogram
	hi.Add(ms(100))
	c.Merge(&hi)
	if c.Min() != ms(1) || c.Max() != ms(100) {
		t.Fatalf("asymmetric merge: min=%v max=%v", c.Min(), c.Max())
	}
	// ...while a lower source min must win.
	hi.Merge(&c)
	if hi.Min() != ms(1) || hi.Max() != ms(100) {
		t.Fatalf("reverse merge: min=%v max=%v", hi.Min(), hi.Max())
	}
	// Equality is bucket-for-bucket: c and hi now differ (hi absorbed all
	// of c), but a histogram always equals a fresh replay of its samples.
	var replay Histogram
	replay.Add(ms(100))
	replay.Add(ms(1))
	replay.Add(ms(100))
	if !hi.Equal(&replay) {
		t.Fatal("hi should equal its sample-replay twin")
	}
	if hi.Equal(&c) {
		t.Fatal("hi and c differ and must not compare equal")
	}
}

func TestHistogramQuantileOnEmptyContract(t *testing.T) {
	// The explicit contract: every quantile of an empty histogram is zero —
	// including the clamped p0/p100 paths and out-of-range q. Callers render
	// "0" for dead windows rather than panicking or inventing a sentinel.
	var h Histogram
	for _, q := range []float64{-1, 0, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	if h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram accessors must all be zero")
	}
	var nilH *Histogram
	if !nilH.Equal(&h) || !h.Equal(nil) {
		t.Fatal("nil and empty histograms must compare equal")
	}
}
