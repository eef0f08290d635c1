package meter

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refReservoir is the keep-every-sample latency store that Histogram
// replaced, kept verbatim (minus its warm-up snapshot plumbing) as the
// oracle for TestHistogramMatchesReservoirReference: a slice of every
// sample, sorted lazily on the first quantile read. It defines the
// nearest-rank convention the histogram reproduces at bucket granularity
// and is not built into the product.
type refReservoir struct {
	samples []time.Duration
	sorted  bool
	sum     time.Duration
}

// Add records one latency sample.
func (r *refReservoir) Add(d time.Duration) {
	r.samples = append(r.samples, d)
	r.sorted = false
	r.sum += d
}

// Count returns the number of samples.
func (r *refReservoir) Count() int { return len(r.samples) }

// Mean returns the average latency, or zero with no samples.
func (r *refReservoir) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / time.Duration(len(r.samples))
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank, or zero
// with no samples.
func (r *refReservoir) Quantile(q float64) time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
	if q <= 0 {
		return r.samples[0]
	}
	if q >= 1 {
		return r.samples[len(r.samples)-1]
	}
	idx := int(math.Ceil(q*float64(len(r.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	return r.samples[idx]
}

// quantileGrid returns the q values checked against n samples: both open
// edges, the reported percentiles, and every exact rank boundary k/n (about
// a thousand of them for large n) with a point between each and the next.
func quantileGrid(n int) []float64 {
	qs := []float64{-1, 0, 1, 2, 0.5, 0.95, 0.99, 0.999}
	step := max(1, n/1000)
	for k := 1; k < n; k += step {
		qs = append(qs, float64(k)/float64(n), (float64(k)+0.5)/float64(n))
	}
	return qs
}

// TestHistogramMatchesReservoirReference is the differential oracle: fed
// the same samples, the histogram must report exactly what the reference
// reservoir reports, moved down to its bucket's lower bound. Between the
// open edges that is clamp(bucketLow(bucketOf(ref)), min, max); at q <= 0
// and q >= 1 it is the exact min and max. Count and Mean are exact, and
// every reported quantile is within the error bound stated on Histogram.
func TestHistogramMatchesReservoirReference(t *testing.T) {
	gens := []struct {
		name string
		draw func(*rand.Rand) time.Duration
	}{
		// Log-uniform over [0, 10 s): every bucket scale from the exact
		// sub-16 ns ones to seconds.
		{"log-uniform", func(r *rand.Rand) time.Duration {
			return time.Duration(math.Exp(r.Float64()*math.Log(float64(10*time.Second)))) - 1
		}},
		{"tiny", func(r *rand.Rand) time.Duration { return time.Duration(r.Intn(40)) }},
		{"duplicates", func(r *rand.Rand) time.Duration {
			return []time.Duration{3, 15, 16, 17, time.Microsecond, 80 * time.Microsecond,
				2 * time.Millisecond, time.Second}[r.Intn(8)]
		}},
		{"all-equal", func(*rand.Rand) time.Duration { return 1_234_567 }},
	}
	for gi, g := range gens {
		for _, n := range []int{0, 1, 2, 4, 100, 100_000} {
			rng := rand.New(rand.NewSource(int64(1000*gi + n)))
			var h Histogram
			var ref refReservoir
			for i := 0; i < n; i++ {
				d := g.draw(rng)
				h.Add(d)
				ref.Add(d)
			}
			if h.Count() != int64(ref.Count()) || h.Mean() != ref.Mean() {
				t.Fatalf("%s/%d: count/mean = %d/%v, reference %d/%v",
					g.name, n, h.Count(), h.Mean(), ref.Count(), ref.Mean())
			}
			lo, hi := ref.Quantile(0), ref.Quantile(1)
			for _, q := range quantileGrid(n) {
				exact, got := ref.Quantile(q), h.Quantile(q)
				want := exact
				if q > 0 && q < 1 {
					want = min(max(bucketLow(bucketOf(exact)), lo), hi)
				}
				if got != want {
					t.Fatalf("%s/%d: Quantile(%v) = %v, want %v (reference sample %v)",
						g.name, n, q, got, want, exact)
				}
				if exact < histSubCount && got != exact {
					t.Fatalf("%s/%d: Quantile(%v) = %v, want the exact %v below 16ns", g.name, n, q, got, exact)
				}
				if err := exact - got; err < 0 || (exact >= histSubCount && err >= exact/histSubCount) {
					t.Fatalf("%s/%d: Quantile(%v) = %v is outside [%v - %v/16, %v]",
						g.name, n, q, got, exact, exact, exact)
				}
			}
		}
	}
}

// The four TestReservoir* cases below were written for the sample reservoir
// the histogram replaced. They now hold the histogram to the same
// nearest-rank contract, on bucket-exact samples wherever a sample itself is
// the expected answer.

// exact returns n·2^20 ns (about n ms) for 1 <= n <= 31: at most five
// significant bits, so the value is the lower bound of its own bucket and
// the histogram reports it unrounded. It fails the test otherwise.
func exact(t *testing.T, n int) time.Duration {
	t.Helper()
	d := time.Duration(n) << 20
	if bucketLow(bucketOf(d)) != d {
		t.Fatalf("%v is not a bucket lower bound", d)
	}
	return d
}

func TestReservoirQuantiles(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", got)
	}
	// Nearest-rank picks the 50th and 99th samples; the histogram reports
	// the lower bound of their buckets.
	if got, want := h.Quantile(0.5), bucketLow(bucketOf(50*time.Millisecond)); got != want {
		t.Fatalf("p50 = %v, want %v (bucket of 50ms)", got, want)
	}
	if got, want := h.Quantile(0.99), bucketLow(bucketOf(99*time.Millisecond)); got != want {
		t.Fatalf("p99 = %v, want %v (bucket of 99ms)", got, want)
	}
	if got := h.Quantile(0); got != time.Millisecond {
		t.Fatalf("p0 = %v, want 1ms", got)
	}
	if got := h.Quantile(1); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
}

func TestReservoirEmptyAndSingleSample(t *testing.T) {
	var h Histogram
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	h.Add(7 * time.Millisecond)
	// Nearest-rank with one sample: every quantile is that sample (the
	// min/max clamp makes it exact even off a bucket boundary).
	for _, q := range []float64{-1, 0, 0.01, 0.5, 0.99, 1, 2} {
		if got := h.Quantile(q); got != 7*time.Millisecond {
			t.Fatalf("single-sample Quantile(%v) = %v, want 7ms", q, got)
		}
	}
	if got := h.Mean(); got != 7*time.Millisecond {
		t.Fatalf("single-sample Mean = %v, want 7ms", got)
	}
}

func TestReservoirNearestRankBoundaries(t *testing.T) {
	// Nearest-rank: rank ceil(q*n), 1-based. With n=4 samples the exact
	// boundary q=0.25 must return the 1st sample (ceil(1)=1), q=0.5 the
	// 2nd, and the open edges clamp to min/max without interpolation.
	var h Histogram
	for _, n := range []int{4, 1, 3, 2} {
		h.Add(exact(t, n))
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, exact(t, 1)},    // p0 = exact min
		{0.25, exact(t, 1)}, // ceil(0.25*4) = rank 1
		{0.26, exact(t, 2)}, // ceil(1.04) = rank 2
		{0.5, exact(t, 2)},  // ceil(2) = rank 2
		{0.75, exact(t, 3)}, // ceil(3) = rank 3
		{0.99, exact(t, 4)}, // ceil(3.96) = rank 4
		{1, exact(t, 4)},    // p100 = exact max
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Fatalf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestReservoirInterleavedAddQuantile(t *testing.T) {
	var h Histogram
	h.Add(exact(t, 3))
	h.Add(exact(t, 1))
	_ = h.Quantile(0.5)
	h.Add(exact(t, 2)) // a read must not freeze the distribution
	if got := h.Quantile(0.5); got != exact(t, 2) {
		t.Fatalf("p50 after interleaved add = %v, want %v", got, exact(t, 2))
	}
}
