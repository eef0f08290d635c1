package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestSingleProcessSleepAdvancesClock(t *testing.T) {
	s := New(epoch)
	var at time.Duration
	s.Go("p", func(p *Proc) {
		p.Sleep(3 * time.Second)
		at = p.Elapsed()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*time.Second {
		t.Fatalf("elapsed = %v, want 3s", at)
	}
	if got := s.Now(); !got.Equal(epoch.Add(3 * time.Second)) {
		t.Fatalf("Now() = %v, want epoch+3s", got)
	}
}

func TestProcessesInterleaveInTimestampOrder(t *testing.T) {
	s := New(epoch)
	var order []string
	record := func(name string) { order = append(order, name) }
	s.Go("a", func(p *Proc) {
		p.Sleep(2 * time.Second)
		record("a@2")
		p.Sleep(2 * time.Second)
		record("a@4")
	})
	s.Go("b", func(p *Proc) {
		p.Sleep(1 * time.Second)
		record("b@1")
		p.Sleep(2 * time.Second)
		record("b@3")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "b@1 a@2 b@3 a@4"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestSameTimestampFIFOBySpawnOrder(t *testing.T) {
	s := New(epoch)
	var order []string
	for i := 0; i < 5; i++ {
		i := i
		s.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, p.name)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "p0 p1 p2 p3 p4"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestNegativeSleepIsYield(t *testing.T) {
	s := New(epoch)
	s.Go("p", func(p *Proc) {
		p.Sleep(-time.Second)
		if e := p.Elapsed(); e != 0 {
			t.Errorf("elapsed after negative sleep = %v, want 0", e)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNestedSpawn(t *testing.T) {
	s := New(epoch)
	var childAt time.Duration
	s.Go("parent", func(p *Proc) {
		p.Sleep(5 * time.Second)
		s.Go("child", func(c *Proc) {
			c.Sleep(time.Second)
			childAt = c.Elapsed()
		})
		p.Sleep(10 * time.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 6*time.Second {
		t.Fatalf("child finished at %v, want 6s", childAt)
	}
}

func TestRunWithNoProcessesReturns(t *testing.T) {
	s := New(epoch)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() string {
		s := New(epoch)
		var order []string
		for i := 0; i < 10; i++ {
			i := i
			s.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(time.Duration(1+(i*7+j*3)%5) * time.Millisecond)
					order = append(order, fmt.Sprintf("%d.%d@%v", i, j, p.Elapsed()))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(order, ";")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two identical runs diverged:\n%s\n%s", a, b)
	}
}

func TestMutexProvidesExclusionAndFIFO(t *testing.T) {
	s := New(epoch)
	m := NewMutex(s)
	var order []string
	inside := false
	for i := 0; i < 4; i++ {
		i := i
		s.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond) // stagger arrivals
			m.Lock(p)
			if inside {
				t.Error("two processes inside critical section")
			}
			inside = true
			p.Sleep(10 * time.Millisecond) // hold across virtual time
			inside = false
			order = append(order, p.name)
			m.Unlock(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "w0 w1 w2 w3" {
		t.Fatalf("order = %q, want FIFO w0..w3", got)
	}
}

func TestMutexRecursiveLockPanics(t *testing.T) {
	s := New(epoch)
	m := NewMutex(s)
	s.Go("p", func(p *Proc) {
		m.Lock(p)
		defer func() {
			if recover() == nil {
				t.Error("recursive lock did not panic")
			}
			m.Unlock(p)
		}()
		m.Lock(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	s := New(epoch)
	m := NewMutex(s)
	s.Go("owner", func(p *Proc) {
		m.Lock(p)
		p.Sleep(time.Second)
		m.Unlock(p)
	})
	s.Go("thief", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("unlock by non-owner did not panic")
			}
		}()
		m.Unlock(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCondSignalWakesOldestWaiter(t *testing.T) {
	s := New(epoch)
	c := NewCond(s)
	var woken []string
	for i := 0; i < 3; i++ {
		i := i
		s.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond)
			c.Wait(p)
			woken = append(woken, p.name)
		})
	}
	s.Go("signaller", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		c.Signal()
		p.Sleep(10 * time.Millisecond)
		c.Broadcast()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(woken, " "); got != "w0 w1 w2" {
		t.Fatalf("wake order = %q, want w0 w1 w2", got)
	}
}

func TestGroupWaitsForAll(t *testing.T) {
	s := New(epoch)
	g := NewGroup(s)
	var doneAt time.Duration
	for i := 1; i <= 3; i++ {
		i := i
		g.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Second)
		})
	}
	s.Go("waiter", func(p *Proc) {
		g.Wait(p)
		doneAt = p.Elapsed()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*time.Second {
		t.Fatalf("group completed at %v, want 3s", doneAt)
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := New(epoch)
	c := NewCond(s)
	s.Go("stuck", func(p *Proc) {
		c.Wait(p) // nobody will ever signal
	})
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock error %q does not name the stuck process", err)
	}
}

func TestResourceLimitsConcurrency(t *testing.T) {
	s := New(epoch)
	r := NewResource(s, 2)
	var maxInside, inside int
	for i := 0; i < 6; i++ {
		s.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			r.Acquire(p, 1)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(time.Second)
			inside--
			r.Release(1)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 2 {
		t.Fatalf("max concurrent holders = %d, want 2", maxInside)
	}
	// 6 holders, 2 at a time, 1s each => 3s total.
	if got := s.Elapsed(); got != 3*time.Second {
		t.Fatalf("makespan = %v, want 3s", got)
	}
}

func TestResourceSetCapacityAdmitsWaiters(t *testing.T) {
	s := New(epoch)
	r := NewResource(s, 1)
	var secondStarted time.Duration
	s.Go("first", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10 * time.Second)
		r.Release(1)
	})
	s.Go("second", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 1)
		secondStarted = p.Elapsed()
		r.Release(1)
	})
	s.Go("scaler", func(p *Proc) {
		p.Sleep(2 * time.Second)
		r.SetCapacity(2)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if secondStarted != 2*time.Second {
		t.Fatalf("second admitted at %v, want 2s (on capacity raise)", secondStarted)
	}
}

func TestResourceCapacityDecreaseDrains(t *testing.T) {
	s := New(epoch)
	r := NewResource(s, 4)
	s.Go("holder", func(p *Proc) {
		r.Acquire(p, 4)
		r.SetCapacity(1) // shrink below usage while held
		if r.used != 4 {
			t.Errorf("used = %d, want 4 while still held", r.used)
		}
		p.Sleep(time.Second)
		r.Release(4)
	})
	s.Go("late", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 1) // must wait for drain
		if e := p.Elapsed(); e != time.Second {
			t.Errorf("late admitted at %v, want 1s", e)
		}
		r.Release(1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourcePeakTracking(t *testing.T) {
	s := New(epoch)
	r := NewResource(s, 10)
	s.Go("p", func(p *Proc) {
		r.Acquire(p, 3)
		r.Acquire(p, 4)
		r.Release(4)
		r.Release(3)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Peak() != 7 {
		t.Fatalf("peak = %d, want 7", r.Peak())
	}
}

func TestQueueServiceAndBacklog(t *testing.T) {
	s := New(epoch)
	q := NewQueue(s, 10) // 10 ops/sec => 100ms per op
	var d1, d2 time.Duration
	s.Go("a", func(p *Proc) {
		d1 = q.Wait(p, 1)
	})
	s.Go("b", func(p *Proc) {
		d2 = q.Wait(p, 1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if d1 != 100*time.Millisecond {
		t.Fatalf("first delay = %v, want 100ms", d1)
	}
	if d2 != 200*time.Millisecond {
		t.Fatalf("queued delay = %v, want 200ms", d2)
	}
}

func TestQueueUnlimitedRateIsFree(t *testing.T) {
	s := New(epoch)
	q := NewQueue(s, 0)
	s.Go("p", func(p *Proc) {
		if d := q.Wait(p, 1000); d != 0 {
			t.Errorf("unlimited queue delay = %v, want 0", d)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestQueueIdleGapDoesNotAccumulateCredit(t *testing.T) {
	s := New(epoch)
	q := NewQueue(s, 10)
	s.Go("p", func(p *Proc) {
		q.Wait(p, 1)
		p.Sleep(5 * time.Second) // long idle gap
		if q.nextFree > s.now {
			t.Errorf("channel booked until %v after idle, now %v", q.nextFree, s.now)
		}
		d := q.Wait(p, 1)
		if d != 100*time.Millisecond {
			t.Errorf("post-idle delay = %v, want 100ms", d)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestRunnextRespectsSeqTiebreak pits the runnext direct-handoff slot
// against same-time heap entries: waiters woken in one burst must still run
// in wake (seq) order even though only the first occupies the fast-path
// slot, and a process that slept *into* the current instant (its event
// pushed earlier, so a smaller seq, but parked in the heap) must beat a
// runnext occupant woken after it.
func TestRunnextRespectsSeqTiebreak(t *testing.T) {
	s := New(epoch)
	c := NewCond(s)
	var order []string
	for i := 0; i < 4; i++ {
		i := i
		s.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Millisecond) // stagger into the cond
			c.Wait(p)
			order = append(order, p.name)
		})
	}
	s.Go("sleeper", func(p *Proc) {
		// Sleeps exactly to the broadcast instant: its event sits in the
		// heap with a seq older than any of the broadcast wakes.
		p.Sleep(10 * time.Millisecond)
		order = append(order, "sleeper")
	})
	s.Go("caller", func(p *Proc) {
		p.Sleep(10 * time.Millisecond)
		c.Broadcast() // wakes w0..w3 at the same instant; w0 takes runnext
		order = append(order, "caller")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// sleeper's event (seq from t=0) precedes caller's, which precedes the
	// broadcast wakes; the wakes themselves must stay FIFO.
	want := "sleeper caller w0 w1 w2 w3"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// TestYieldStormStaysFIFO drives many processes through repeated same-time
// yields — the heaviest runnext traffic possible — and checks the round-robin
// order never degrades.
func TestYieldStormStaysFIFO(t *testing.T) {
	s := New(epoch)
	var order []string
	for i := 0; i < 3; i++ {
		i := i
		s.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 3; j++ {
				order = append(order, fmt.Sprintf("p%d.%d", i, j))
				p.Yield()
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "p0.0 p1.0 p2.0 p0.1 p1.1 p2.1 p0.2 p1.2 p2.2"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

// TestDeadlockNamesEveryBlockedProcessWithReason builds a three-way deadlock
// across different primitives and demands the diagnostic name each process
// with its blocking reason — the bookkeeping moved off the hot path must
// still be exact when it matters.
func TestDeadlockNamesEveryBlockedProcessWithReason(t *testing.T) {
	s := New(epoch)
	c := NewCond(s)
	m := NewMutex(s)
	r := NewResource(s, 1)
	s.Go("cond-waiter", func(p *Proc) {
		c.Wait(p)
	})
	s.Go("lock-holder", func(p *Proc) {
		m.Lock(p)
		r.Acquire(p, 1)
		p.Sleep(time.Second)
		r.Acquire(p, 1) // exhausted: blocks forever holding the mutex
	})
	s.Go("lock-waiter", func(p *Proc) {
		p.Sleep(time.Millisecond)
		m.Lock(p)
	})
	err := s.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	for _, want := range []string{
		"3 process(es) blocked",
		"cond-waiter (cond)",
		"lock-holder (resource)",
		"lock-waiter (mutex)",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("deadlock error %q missing %q", err, want)
		}
	}
}

// TestQueueReserveHugeOpsSaturates is the regression test for the
// time.Duration overflow in Reserve: a pathologically large reservation must
// clamp to the far future, never wrap negative (which would panic the kernel
// with "time went backwards").
func TestQueueReserveHugeOpsSaturates(t *testing.T) {
	s := New(epoch)
	q := NewQueue(s, 1) // 1 op/s => 1s per op
	const hugeOps = int(1<<62 - 1)
	d := q.Reserve(hugeOps)
	if d <= 0 {
		t.Fatalf("Reserve(%d) = %v, want a large positive delay", hugeOps, d)
	}
	if q.nextFree <= s.now {
		t.Fatalf("channel booked until %v after huge reserve, want the far future", q.nextFree)
	}
	// A follow-up reservation on the saturated channel must stay sane too.
	if d2 := q.Reserve(1); d2 <= 0 {
		t.Fatalf("Reserve(1) after saturation = %v, want positive", d2)
	}
	// Sleeping on a saturated delay must clamp, not wrap the clock.
	s.Go("p", func(p *Proc) {
		p.Sleep(d)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestManyProcessesStress(t *testing.T) {
	s := New(epoch)
	r := NewResource(s, 8)
	total := 0
	for i := 0; i < 200; i++ {
		i := i
		s.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < 20; j++ {
				r.Use(p, 1, time.Duration(1+(i+j)%3)*time.Millisecond)
				total++
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 4000 {
		t.Fatalf("completed = %d, want 4000", total)
	}
}

func TestResourceRejectsNonPositiveUnits(t *testing.T) {
	r := NewResource(New(epoch), 4)
	for _, c := range []struct {
		name string
		call func(n int64)
	}{
		{"Release", func(n int64) { r.Release(n) }},
		{"Acquire", func(n int64) { r.Acquire(nil, n) }},
	} {
		for _, n := range []int64{0, -1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d) did not panic", c.name, n)
					}
				}()
				c.call(n)
			}()
			if r.used != 0 {
				t.Fatalf("%s(%d) moved used to %d", c.name, n, r.used)
			}
		}
	}
}

var errProcBoom = errors.New("boom")

// TestProcPanicSurfacesFromRun checks that a proc's panic re-panics from Run
// on its caller, naming the proc and keeping the value, and that the kernel
// runs the next simulation normally afterwards.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	func() {
		s := New(epoch)
		s.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
		s.Go("bomb", func(p *Proc) {
			p.Sleep(time.Second)
			panic(errProcBoom)
		})
		defer func() {
			err, ok := recover().(error)
			if !ok {
				t.Fatalf("Run panicked with a %T, want an error", err)
			}
			if !errors.Is(err, errProcBoom) || !strings.Contains(err.Error(), "proc bomb panicked") {
				t.Fatalf("Run panicked with %q, want the proc's name and its error", err)
			}
		}()
		_ = s.Run()
		t.Fatal("Run returned after a proc panicked")
	}()
	s := New(epoch)
	s.Go("after", func(p *Proc) { p.Sleep(time.Second) })
	if err := s.Run(); err != nil || s.Elapsed() != time.Second {
		t.Fatalf("next Run: err %v at %v, want nil at 1s", err, s.Elapsed())
	}
}

// TestKernelAllocationFloors pins the kernel's steady state: a proc costs
// one allocation (its Proc) to spawn and run to exit, and every handoff —
// Sleep, Yield, Mutex, Cond, SleepThen, Resource (a contended Use's hold is
// its continuation) — costs none. Each run spawns procs that hand off
// hundreds of times on one warmed Sim, so a per-handoff allocation would
// show as hundreds.
func TestKernelAllocationFloors(t *testing.T) {
	const rounds = 200
	floor := func(name string, procs int, body func(s *Sim) func(p *Proc)) {
		t.Helper()
		s := New(epoch)
		fn := body(s)
		got := testing.AllocsPerRun(20, func() {
			for i := 0; i < procs; i++ {
				s.Go("w", fn)
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		})
		if got > float64(procs) {
			t.Errorf("%s: %.1f allocations per run of %d procs, want <= %d", name, got, procs, procs)
		}
	}
	floor("spawn+exit", 1, func(*Sim) func(*Proc) { return func(*Proc) {} })
	floor("Sleep", 2, func(*Sim) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Sleep(time.Microsecond)
			}
		}
	})
	floor("Yield", 2, func(*Sim) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.Yield()
			}
		}
	})
	floor("Mutex", 2, func(s *Sim) func(*Proc) {
		m := NewMutex(s)
		return func(p *Proc) {
			for i := 0; i < rounds; i++ {
				m.Lock(p)
				p.Sleep(time.Microsecond)
				m.Unlock(p)
			}
		}
	})
	floor("Cond", 2, func(s *Sim) func(*Proc) {
		c := NewCond(s)
		waiting := false // the first proc of a run waits, the second signals
		return func(p *Proc) {
			if waiting = !waiting; waiting {
				for i := 0; i < rounds; i++ {
					c.Wait(p)
				}
				return
			}
			for i := 0; i < rounds; i++ {
				p.Sleep(time.Microsecond)
				c.Signal()
			}
		}
	})
	floor("SleepThen", 2, func(*Sim) func(*Proc) {
		return func(p *Proc) {
			for i := 0; i < rounds; i++ {
				p.SleepThen(time.Microsecond, time.Microsecond)
			}
		}
	})
	floor("Resource", 2, func(s *Sim) func(*Proc) {
		r := NewResource(s, 1)
		return func(p *Proc) {
			for i := 0; i < rounds; i++ {
				r.Use(p, 1, time.Microsecond)
			}
		}
	})
}
