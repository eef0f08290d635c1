package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"
)

// The continuation differential. Resource.Use and Proc.SleepThen leave a
// proc's second sleep with the kernel (see dispatch); each program here runs
// twice, once through them and once spelled out as Acquire + Sleep + Release
// and Sleep + Sleep, and the two runs must agree byte for byte: the
// (name, instant) trace at every mark, every resource's integrals, peak,
// queue length and capacity, the run's error and its final clock.

// contWorld runs the oracle's world with continuations, or without them
// when spelled is set.
type contWorld struct {
	*oracleWorld
	spelled   bool
	contended int // Uses that found their resource busy and queued
}

func (w *contWorld) use(p *Proc, r *Resource, n int64, d time.Duration) {
	if r.waiters.len() > 0 || r.used+n > r.cap {
		w.contended++
	}
	if w.spelled {
		r.Acquire(p, n)
		p.Sleep(d)
		r.Release(n)
		return
	}
	r.Use(p, n, d)
}

func (w *contWorld) sleepThen(p *Proc, d, then time.Duration) {
	if w.spelled {
		p.Sleep(d)
		p.Sleep(then)
		return
	}
	p.SleepThen(d, then)
}

// then draws a continuation: zero, negative, or a short sleep.
func (w *contWorld) then(r *oracleRand) time.Duration {
	switch r.intn(4) {
	case 0:
		return 0
	case 1:
		return -time.Duration(1+r.intn(3)) * time.Microsecond
	}
	return w.small(r)
}

func (w *contWorld) spawn(g *Group, name string, seed uint64, depth int) {
	w.live++
	body := func(p *Proc) {
		defer func() { w.live-- }()
		w.mark(p)
		w.program(p, &oracleRand{x: seed}, depth)
	}
	if g != nil {
		g.Go(name, body)
		return
	}
	w.s.Go(name, body)
}

func (w *contWorld) program(p *Proc, r *oracleRand, depth int) {
	steps := 6 + r.intn(18)
	for i := 0; i < steps; i++ {
		res := w.res[r.intn(2)]
		switch r.intn(12) {
		case 0:
			p.Sleep(w.small(r))
		case 1:
			p.Yield()
		case 2, 3:
			w.use(p, res, int64(1+r.intn(oracleMaxCap)), w.then(r))
		case 4:
			w.sleepThen(p, w.small(r), w.then(r))
		case 5:
			w.sleepThen(p, 0, 0)
		case 6:
			// Zero included: a Use queued now waits for the ticker.
			res.SetCapacity(int64(r.intn(oracleMaxCap + 1)))
		case 7:
			n := int64(1 + r.intn(oracleMaxCap))
			res.Acquire(p, n)
			w.mark(p)
			p.Sleep(w.small(r))
			res.Release(n)
		case 8:
			w.conds[r.intn(2)].Wait(p)
		case 9:
			w.conds[r.intn(2)].Signal()
		case 10:
			if depth >= 2 {
				p.Yield()
				break
			}
			g := NewGroup(w.s)
			for k, kids := 0, 1+r.intn(3); k < kids; k++ {
				w.spawn(g, fmt.Sprintf("%s.%d.%d", p.name, i, k), r.next(), depth+1)
			}
			g.Wait(p)
		case 11:
			if depth > 0 || r.intn(4) != 0 {
				w.sleepThen(p, -time.Microsecond, w.small(r))
				break
			}
			// A root saturates the clock through a continuation and keeps
			// sleeping on it; the ticker stops waiting for it first.
			w.live--
			w.sleepThen(p, w.small(r), maxDuration)
			w.mark(p)
			w.sleepThen(p, maxDuration, time.Microsecond)
			w.mark(p)
			w.sleepThen(p, time.Microsecond, maxDuration)
			w.live++
			return
		}
		w.mark(p)
	}
}

// contRandom is the oracle's set-up around contWorld's programs: a few
// roots and a ticker that wakes cond waiters and restores capacity.
func contRandom(seed uint64) func(w *contWorld) {
	return func(w *contWorld) {
		r := &oracleRand{x: seed * 0x2545f4914f6cdd1d}
		for i, roots := 0, 2+r.intn(5); i < roots; i++ {
			w.spawn(nil, fmt.Sprintf("r%d", i), r.next(), 0)
		}
		tick := time.Duration(1+r.intn(50)) * time.Microsecond
		w.s.Go("ticker", func(p *Proc) {
			for n := 0; w.live > 0 && n < 100_000; n++ {
				p.Sleep(tick)
				w.mark(p)
				for i := range w.conds {
					w.conds[i].Broadcast()
					w.res[i].SetCapacity(oracleMaxCap)
				}
			}
		})
	}
}

// contScenarios pin the cases a random program may or may not reach.
var contScenarios = []struct {
	name  string
	build func(w *contWorld)
}{
	{"capacity to zero and back under a queued Use", func(w *contWorld) {
		res := w.res[0]
		w.s.Go("holder", func(p *Proc) { w.use(p, res, oracleMaxCap, 10*time.Microsecond); w.mark(p) })
		w.s.Go("waiter", func(p *Proc) { w.use(p, res, 2, 3*time.Microsecond); w.mark(p) })
		w.s.Go("resizer", func(p *Proc) {
			p.Sleep(time.Microsecond)
			res.SetCapacity(0)
			w.mark(p)
			p.Sleep(20 * time.Microsecond)
			res.SetCapacity(oracleMaxCap)
			w.mark(p)
		})
	}},
	{"zero, negative and saturating continuations", func(w *contWorld) {
		res := w.res[0]
		w.s.Go("holder", func(p *Proc) { w.use(p, res, oracleMaxCap, time.Microsecond); w.mark(p) })
		for i, d := range []time.Duration{0, -time.Microsecond, time.Microsecond, maxDuration} {
			w.s.Go(fmt.Sprintf("use%d", i), func(p *Proc) { w.use(p, res, 1, d); w.mark(p) })
		}
		w.s.Go("sleeper", func(p *Proc) {
			for _, then := range []time.Duration{0, -time.Microsecond, math.MinInt64, time.Microsecond, maxDuration} {
				w.sleepThen(p, time.Microsecond, then)
				w.mark(p)
			}
			w.sleepThen(p, maxDuration, maxDuration)
			w.mark(p)
		})
	}},
	{"a continuation whose wake is the next event", func(w *contWorld) {
		w.s.Go("alone", func(p *Proc) {
			w.sleepThen(p, 0, 0)
			w.mark(p)
			w.sleepThen(p, 2*time.Microsecond, 3*time.Microsecond)
			w.mark(p)
			w.use(p, w.res[0], 1, 0)
			w.mark(p)
		})
	}},
	{"a continuation queued behind a same-instant wake", func(w *contWorld) {
		for i := 0; i < 3; i++ {
			w.s.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				w.sleepThen(p, 0, 0)
				w.mark(p)
				w.sleepThen(p, time.Microsecond, 0)
				w.mark(p)
				p.Yield()
				w.mark(p)
			})
		}
	}},
	{"one Release admits several waiters", func(w *contWorld) {
		res := w.res[0]
		w.s.Go("holder", func(p *Proc) { w.use(p, res, oracleMaxCap, 5*time.Microsecond); w.mark(p) })
		for i := 0; i < 3; i++ {
			w.s.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				w.use(p, res, 1, time.Duration(3-i)*time.Microsecond)
				w.mark(p)
			})
		}
	}},
	{"one SetCapacity admits several waiters", func(w *contWorld) {
		res := w.res[1]
		res.SetCapacity(1)
		for i := 0; i < 4; i++ {
			w.s.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
				w.use(p, res, 1, time.Duration(i)*time.Microsecond)
				w.mark(p)
			})
		}
		w.s.Go("grow", func(p *Proc) {
			p.Sleep(time.Microsecond / 2)
			res.SetCapacity(oracleMaxCap)
			w.mark(p)
		})
	}},
	{"a queued Use left at zero capacity deadlocks alike", func(w *contWorld) {
		res := w.res[0]
		w.s.Go("holder", func(p *Proc) {
			w.use(p, res, 1, time.Microsecond)
			res.SetCapacity(0)
			w.mark(p)
		})
		w.s.Go("stuck", func(p *Proc) { p.Sleep(2 * time.Microsecond); w.use(p, res, 1, time.Microsecond); w.mark(p) })
		w.s.Go("waiter", func(p *Proc) { w.use(p, res, 1, time.Microsecond); w.mark(p) })
	}},
}

// runCont runs build's program and returns everything it observed as
// bytes, and how many of its Uses queued.
func runCont(build func(w *contWorld), spelled bool) ([]byte, int) {
	s := New(epoch)
	w := &contWorld{oracleWorld: &oracleWorld{s: s}, spelled: spelled}
	for i := range w.res {
		w.conds[i] = NewCond(s)
		w.res[i] = NewResource(s, oracleMaxCap)
	}
	build(w)
	err := s.Run()
	out := w.trace
	for _, r := range w.res {
		used, capacity := r.Integrals()
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(used))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(capacity))
		out = fmt.Appendf(out, "|peak %d waiting %d cap %d", r.Peak(), r.Waiting(), r.Capacity())
	}
	return fmt.Appendf(out, "|%v|%v", err, s.Elapsed()), w.contended
}

// diffCont runs build both ways and reports where the two outputs first
// part.
func diffCont(t *testing.T, name string, build func(w *contWorld)) int {
	t.Helper()
	got, contended := runCont(build, false)
	want, _ := runCont(build, true)
	if string(got) == string(want) {
		return contended
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	t.Errorf("%s: continuations part from the spelled-out program at byte %d of %d/%d:\n with: %q\n spelled: %q",
		name, i, len(got), len(want), got[i:min(len(got), i+64)], want[i:min(len(want), i+64)])
	return contended
}

func TestContinuationsMatchSpelledOut(t *testing.T) {
	for _, sc := range contScenarios {
		diffCont(t, sc.name, sc.build)
	}
	contended := 0
	for seed := uint64(0); seed < 200; seed++ {
		contended += diffCont(t, fmt.Sprintf("seed %d", seed), contRandom(seed))
	}
	if contended == 0 {
		t.Error("no random program queued a Use: the contended continuation went untested")
	}
}

func FuzzContinuations(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		diffCont(t, fmt.Sprintf("seed %d", seed), contRandom(seed))
	})
}
