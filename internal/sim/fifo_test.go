package sim

import (
	"runtime"
	"testing"
	"time"
)

// TestFifoKeepsOrderAcrossWrapAndGrowth pushes and pops in uneven bursts so
// the ring wraps and grows while part full; elements must come out in push
// order throughout.
func TestFifoKeepsOrderAcrossWrapAndGrowth(t *testing.T) {
	var q fifo[int]
	next, want := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < 1+round%7; i++ {
			q.push(next)
			next++
		}
		for i := 0; i < 1+round%5 && q.len() > 0; i++ {
			if got := q.peek(); got != want {
				t.Fatalf("peek = %d, want %d", got, want)
			}
			if got := q.pop(); got != want {
				t.Fatalf("pop = %d, want %d", got, want)
			}
			want++
		}
	}
	for q.len() > 0 {
		if got := q.pop(); got != want {
			t.Fatalf("drain pop = %d, want %d", got, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("popped %d of %d", want, next)
	}
}

// TestWaitQueuesDoNotReallocate is the regression test for pop-front by
// re-slicing: a Resource whose queue fills and drains forever must settle on
// one backing array. Eight processes contend for one unit, so seven wait at
// any time and the queue wraps every few acquisitions. Mallocs are counted
// over the whole window, since one re-allocation per wrap is well under one
// per call and testing.AllocsPerRun reports whole allocations per run.
func TestWaitQueuesDoNotReallocate(t *testing.T) {
	s := New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	r := NewResource(s, 1)
	const procs, warm, measured = 8, 100, 2000
	var mallocs uint64
	for i := 0; i < procs; i++ {
		i := i
		s.Go("contender", func(p *Proc) {
			for j := 0; j < warm; j++ {
				r.Use(p, 1, time.Microsecond)
			}
			var m0, m1 runtime.MemStats
			if i == 0 {
				runtime.ReadMemStats(&m0)
			}
			for j := 0; j < measured; j++ {
				r.Use(p, 1, time.Microsecond)
			}
			if i == 0 {
				runtime.ReadMemStats(&m1)
				mallocs = m1.Mallocs - m0.Mallocs
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Every process is inside its measured loop for the whole window.
	if limit := uint64(measured / 50); mallocs > limit {
		t.Fatalf("%d contended acquisitions cost %d allocations, want at most %d", procs*measured, mallocs, limit)
	}
}
