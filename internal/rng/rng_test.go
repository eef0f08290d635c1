package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterministicReplay(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Int63n(1<<40), b.Int63n(1<<40); x != y {
			t.Fatalf("streams diverged at %d: %d vs %d", i, x, y)
		}
	}
}

func TestChildOfIsPureFunction(t *testing.T) {
	a := ChildOf(7, "worker-3")
	b := ChildOf(7, "worker-3")
	c := ChildOf(7, "worker-4")
	ax, bx, cx := a.Int63n(1<<50), b.Int63n(1<<50), c.Int63n(1<<50)
	if ax != bx {
		t.Fatalf("same (seed,name) produced different streams: %d vs %d", ax, bx)
	}
	if ax == cx {
		t.Fatal("different names produced identical first draw (suspicious)")
	}
}

func TestIntRangeInclusive(t *testing.T) {
	s := New(1)
	seenLo, seenHi := false, false
	for i := 0; i < 10000; i++ {
		v := s.IntRange(5, 8)
		if v < 5 || v > 8 {
			t.Fatalf("IntRange(5,8) = %d out of range", v)
		}
		if v == 5 {
			seenLo = true
		}
		if v == 8 {
			seenHi = true
		}
	}
	if !seenLo || !seenHi {
		t.Fatal("IntRange never produced an endpoint in 10k draws")
	}
}

func TestUniformCoversKeySpace(t *testing.T) {
	d := &Uniform{Src: New(3)}
	counts := make(map[int64]int)
	const n, draws = 100, 100000
	for i := 0; i < draws; i++ {
		k := d.Next(n)
		if k < 1 || k > n {
			t.Fatalf("uniform key %d out of [1,%d]", k, n)
		}
		counts[k]++
	}
	// Chi-squared-ish sanity: every key should appear within 3x of expectation.
	want := float64(draws) / n
	for k, c := range counts {
		if float64(c) < want/3 || float64(c) > want*3 {
			t.Fatalf("key %d count %d wildly off expectation %.0f", k, c, want)
		}
	}
}

func TestLatestConcentratesOnFreshKeys(t *testing.T) {
	d := &Latest{Src: New(4), K: 10}
	const max = 100000
	for i := 0; i < 10000; i++ {
		k := d.Next(max)
		if k <= max-10 || k > max {
			t.Fatalf("latest-10 produced key %d outside the 10 freshest", k)
		}
	}
}

func TestLatestSmallKeySpace(t *testing.T) {
	d := &Latest{Src: New(5), K: 10}
	for i := 0; i < 100; i++ {
		k := d.Next(3) // fewer keys than K
		if k < 1 || k > 3 {
			t.Fatalf("latest on tiny space produced %d", k)
		}
	}
	if got := d.Next(0); got != 1 {
		t.Fatalf("latest on empty space = %d, want 1", got)
	}
}

func TestPickWeighted(t *testing.T) {
	s := New(7)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[s.PickWeighted([]float64{1, 2, 7})]++
	}
	if counts[2] < counts[1] || counts[1] < counts[0] {
		t.Fatalf("weighted pick ordering wrong: %v", counts)
	}
	frac := float64(counts[2]) / 30000
	if math.Abs(frac-0.7) > 0.05 {
		t.Fatalf("weight-7 share = %.3f, want ~0.7", frac)
	}
}

func TestPickWeightedPanicsOnBadWeights(t *testing.T) {
	s := New(8)
	for _, weights := range [][]float64{{0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PickWeighted(%v) did not panic", weights)
				}
			}()
			s.PickWeighted(weights)
		}()
	}
}

func TestParetoProportionsSumToOneAndDecay(t *testing.T) {
	p := ParetoProportions(5, 0)
	var sum float64
	for i, v := range p {
		sum += v
		if i > 0 && v >= p[i-1] {
			t.Fatalf("proportions not strictly decaying: %v", p)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("proportions sum = %v, want 1", sum)
	}
	if ParetoProportions(0, 1) != nil {
		t.Fatal("n=0 should return nil")
	}
}

func TestLettersFormat(t *testing.T) {
	s := New(9)
	str := s.Letters(32)
	if len(str) != 32 {
		t.Fatalf("len = %d, want 32", len(str))
	}
	for _, c := range str {
		if c < 'a' || c > 'z' {
			t.Fatalf("unexpected character %q", c)
		}
	}
}

func TestPropertyDistKeysAlwaysInRange(t *testing.T) {
	check := func(seed int64, maxRaw uint16) bool {
		max := int64(maxRaw%5000) + 1
		dists := []Dist{
			&Uniform{Src: New(seed)},
			&Latest{Src: New(seed), K: 10},
		}
		for _, d := range dists {
			for i := 0; i < 50; i++ {
				k := d.Next(max)
				if k < 1 || k > max {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
