package meter

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSeriesAtAndSteps(t *testing.T) {
	s := NewSeries(4)
	s.Set(sec(10), 8)
	s.Set(sec(20), 2)
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 4}, {sec(5), 4}, {sec(10), 8}, {sec(15), 8}, {sec(20), 2}, {sec(100), 2},
	}
	for _, c := range cases {
		if got := s.At(c.at); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestSeriesSetSameInstantOverwrites(t *testing.T) {
	s := NewSeries(1)
	s.Set(sec(5), 2)
	s.Set(sec(5), 3)
	if got := s.At(sec(5)); got != 3 {
		t.Fatalf("At(5s) = %v, want 3 (overwrite)", got)
	}
	if n := len(s.Steps()); n != 2 {
		t.Fatalf("steps = %d, want 2", n)
	}
}

func TestSeriesNoOpStepCompacted(t *testing.T) {
	s := NewSeries(5)
	s.Set(sec(3), 5)
	if n := len(s.Steps()); n != 1 {
		t.Fatalf("steps = %d, want 1 (no-op compacted)", n)
	}
}

func TestSeriesBackwardsTimePanics(t *testing.T) {
	s := NewSeries(1)
	s.Set(sec(10), 2)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Set did not panic")
		}
	}()
	s.Set(sec(5), 3)
}

func TestSeriesBackwardsAfterCompactedSetPanics(t *testing.T) {
	// Regression: a no-op Set(10, v) is compacted away, but its time must
	// still arm the backwards check — otherwise Set(5, w) would silently
	// rewrite [5,10) history the caller had already asserted was v.
	s := NewSeries(5)
	s.Set(sec(10), 5) // compacted: no new step
	if n := len(s.Steps()); n != 1 {
		t.Fatalf("steps = %d, want 1 (no-op compacted)", n)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Set after compacted no-op did not panic")
		}
	}()
	s.Set(sec(5), 7)
}

func TestSeriesSetOverwriteAtSegmentBoundary(t *testing.T) {
	// Set, overwrite at the same instant, then query across the boundary:
	// Integral and At must agree with the final overwritten value.
	s := NewSeries(2)
	s.Set(sec(10), 8)
	s.Set(sec(10), 4) // overwrite at the boundary
	if got := s.At(sec(10)); got != 4 {
		t.Fatalf("At(10s) = %v, want 4", got)
	}
	if got := s.At(sec(10) - 1); got != 2 {
		t.Fatalf("At(10s-1ns) = %v, want 2", got)
	}
	// [0,10): 2*10 = 20; [10,20): 4*10 = 40.
	if got := s.Integral(0, sec(20)); !almost(got, 60) {
		t.Fatalf("Integral(0,20s) = %v, want 60", got)
	}
	// Overwriting back to the prior segment's value must drop the
	// now-redundant step and keep Integral consistent.
	s.Set(sec(10), 2)
	if n := len(s.Steps()); n != 1 {
		t.Fatalf("steps = %d, want 1 (redundant boundary step dropped)", n)
	}
	if got := s.Integral(0, sec(20)); !almost(got, 40) {
		t.Fatalf("Integral after overwrite-to-prior = %v, want 40", got)
	}
	// The dropped step's time still guards against backwards Sets, and a
	// later distinct value still appends.
	s.Set(sec(15), 9)
	if got := s.At(sec(12)); got != 2 {
		t.Fatalf("At(12s) = %v, want 2", got)
	}
	if got := s.At(sec(15)); got != 9 {
		t.Fatalf("At(15s) = %v, want 9", got)
	}
}

func TestSeriesIntegralAndAvg(t *testing.T) {
	s := NewSeries(4)
	s.Set(sec(10), 8)
	s.Set(sec(20), 0)
	// [0,10): 4*10 = 40; [10,20): 8*10 = 80; [20,30): 0.
	if got := s.Integral(0, sec(30)); !almost(got, 120) {
		t.Fatalf("Integral(0,30s) = %v, want 120", got)
	}
	if got := s.Integral(sec(5), sec(15)); !almost(got, 4*5+8*5) {
		t.Fatalf("Integral(5,15s) = %v, want 60", got)
	}
	if got := s.Integral(sec(10), sec(10)); got != 0 {
		t.Fatalf("empty-window integral = %v, want 0", got)
	}
}

func TestSeriesMaxMin(t *testing.T) {
	s := NewSeries(4)
	s.Set(sec(10), 8)
	s.Set(sec(20), 2)
	if got := s.Max(0, sec(30)); got != 8 {
		t.Fatalf("Max = %v, want 8", got)
	}
	if got := s.Min(0, sec(30)); got != 2 {
		t.Fatalf("Min = %v, want 2", got)
	}
	if got := s.Max(0, sec(5)); got != 4 {
		t.Fatalf("Max over flat prefix = %v, want 4", got)
	}
}

func TestSeriesSample(t *testing.T) {
	s := NewSeries(1)
	s.Set(sec(2), 3)
	got := s.Sample(0, sec(4), sec(1))
	want := []float64{1, 1, 3, 3}
	if len(got) != len(want) {
		t.Fatalf("sample length = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if s.Sample(0, 0, sec(1)) != nil {
		t.Fatal("empty window sample should be nil")
	}
}

func TestSeriesIntegralMatchesSampledSum(t *testing.T) {
	// Property: integral over aligned buckets equals the sum of At(bucket
	// start) * width because the series only changes on whole seconds here.
	check := func(vals []uint8) bool {
		s := NewSeries(float64(1))
		for i, v := range vals {
			s.Set(sec(float64(i+1)), float64(v%16))
		}
		end := sec(float64(len(vals) + 1))
		var sum float64
		for ti := time.Duration(0); ti < end; ti += sec(1) {
			sum += s.At(ti)
		}
		return almost(sum, s.Integral(0, end))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterRates(t *testing.T) {
	c := NewCounter(time.Second)
	c.Add(sec(0.5), 10)
	c.Add(sec(1.2), 20)
	c.Add(sec(1.9), 5)
	if c.Total() != 35 {
		t.Fatalf("total = %d, want 35", c.Total())
	}
	if got := c.CountIn(0, sec(1)); got != 10 {
		t.Fatalf("CountIn[0,1) = %d, want 10", got)
	}
	if got := c.CountIn(sec(1), sec(2)); got != 25 {
		t.Fatalf("CountIn[1,2) = %d, want 25", got)
	}
	if got := c.Rate(0, sec(2)); !almost(got, 17.5) {
		t.Fatalf("Rate = %v, want 17.5", got)
	}
	buckets := c.Buckets(0, sec(3))
	want := []float64{10, 25, 0}
	for i := range want {
		if !almost(buckets[i], want[i]) {
			t.Fatalf("buckets = %v, want %v", buckets, want)
		}
	}
}

func TestCounterEmptyWindow(t *testing.T) {
	c := NewCounter(time.Second)
	if c.CountIn(sec(5), sec(5)) != 0 || c.Rate(sec(5), sec(5)) != 0 {
		t.Fatal("empty window should count zero")
	}
	if c.Buckets(sec(1), sec(1)) != nil {
		t.Fatal("empty window buckets should be nil")
	}
}
