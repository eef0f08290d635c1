package sim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"testing"
	"time"
)

// The dispatch-order oracle. Each seed builds a random program of procs that
// sleep (zero, small and saturating durations), yield, take mutexes, wait on
// and signal conds, acquire resources while others resize them, wait on a
// rate queue, spawn nested children (detached or through a Group) and exit
// early. Every proc hashes (its name, virtual now) each time it is
// dispatched, so the digest is the kernel's dispatch order. The pinned
// digests were computed on the channel-handoff kernel this one replaced: a
// kernel change that reorders any dispatch, or stamps any dispatch with a
// different instant, moves a digest.

// oracleDigests holds one pinned digest per seed, 0..len-1.
var oracleDigests = [...]uint64{
	0x5662db24a0e44521, 0xb0f725b7822b3f63, 0x8c541a5692d63887, 0x18373508c3500348,
	0x52971c2b5d1b2e2f, 0x5345e3701a4d8041, 0x9422727e3b09e875, 0x2c3fe65d6c7cf656,
	0xc68ff44f7719a514, 0x78d772d88312b566, 0xa0254e1f753248f6, 0x722b607e25a55d34,
	0x9970116b39c8881b, 0x1f89df9014c68166, 0x2ba3956394267833, 0x7a44ee2bfb5ecd77,
	0xf4b50ec52dfd2a63, 0x06712cdf514f25a2, 0x0e1eeec09d6e1969, 0xa988d08a0c941f5c,
	0x97ddb506e741feee, 0x4627edb4259de563, 0x0b0b14a5def9a4ac, 0x0a53f92e826b3393,
	0x7328b85b07275d6a, 0xb1968a1b63065dc6, 0xa5c4df8d0cafd12b, 0xa05ccb676722abff,
	0x366fe24cb7b28007, 0xa114ca9949176ed0, 0xd9ce6ee04d635aa1, 0x35122a08830a601d,
	0xed4ab88cb80358c8, 0xc856283677cf7e9a, 0x9e8103e4df79b211, 0xc96a24068fac3de4,
	0x2723047edb5f5b24, 0x8417d5b7eeac6933, 0x301f92e1d2709afe, 0xd8f54b8cb0e01574,
	0x14419dbafb77c441, 0x3cfa7c91473ab29b, 0x49d441532bf46537, 0x9e434d1b16bf297f,
	0x32489902531c0395, 0x05c61959b69c1ec1, 0x96f3402969ae6bc9, 0x1ec45cf680e3ea32,
	0x284fb1bf6752ed6c, 0x9fb4d1c2a8b5767c, 0x2b78cfcb162ba30b, 0xcaffa62630952371,
	0x9409cedced31ce6d, 0x885c53174331c734, 0x0d94992b8b3bcaa6, 0x61bf0bc1fe6b6914,
	0x469011c007f2b43f, 0xa4578a19f20722ea, 0x1abb2ef857b19dbc, 0xcce3373894f9ef02,
	0x6e3c59007dd2f286, 0x82bafcbac39ef96c, 0xd360095d9010ca00, 0x3f85f2134c8c9da9,
}

// oracleRand is splitmix64: each proc draws its program from its own stream,
// so the program does not depend on the order procs happen to run in.
type oracleRand struct{ x uint64 }

func (r *oracleRand) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *oracleRand) intn(n int) int { return int(r.next() % uint64(n)) }

type oracleWorld struct {
	s     *Sim
	mus   [2]*Mutex
	conds [2]*Cond
	res   [2]*Resource
	q     *Queue
	live  int
	trace []byte
}

const oracleMaxCap = 4

// mark appends one dispatch to the trace.
func (w *oracleWorld) mark(p *Proc) {
	w.trace = append(w.trace, p.name...)
	w.trace = append(w.trace, 0)
	w.trace = binary.LittleEndian.AppendUint64(w.trace, uint64(p.Elapsed()))
}

// small is a short random sleep: zero, a few microseconds or a millisecond.
func (w *oracleWorld) small(r *oracleRand) time.Duration {
	switch r.intn(3) {
	case 0:
		return 0
	case 1:
		return time.Duration(1+r.intn(5)) * time.Microsecond
	}
	return time.Millisecond
}

// spawn starts a proc running its own random program, through g when it is
// not nil.
func (w *oracleWorld) spawn(g *Group, name string, seed uint64, depth int) {
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

func (w *oracleWorld) program(p *Proc, r *oracleRand, depth int) {
	steps := 6 + r.intn(18)
	for i := 0; i < steps; i++ {
		switch r.intn(16) {
		case 0:
			p.Sleep(0)
		case 1:
			p.Sleep(w.small(r))
		case 2:
			if depth > 0 || r.intn(4) != 0 {
				p.Sleep(time.Duration(r.intn(40)) * time.Microsecond)
				break
			}
			// A root saturates the clock, then sleeps and yields on it. The
			// ticker stops waiting for it first, or would tick forever; no
			// Group waits for a root.
			w.live--
			p.Sleep(maxDuration)
			w.mark(p)
			p.Sleep(time.Microsecond)
			w.mark(p)
			p.Yield()
			w.live++
			return
		case 3:
			p.Yield()
		case 4:
			m := w.mus[r.intn(2)]
			m.Lock(p)
			w.mark(p)
			p.Sleep(w.small(r))
			m.Unlock(p)
		case 5:
			w.conds[r.intn(2)].Wait(p)
		case 6:
			w.conds[r.intn(2)].Signal()
		case 7:
			w.conds[r.intn(2)].Broadcast()
		case 8:
			res, n := w.res[r.intn(2)], int64(1+r.intn(oracleMaxCap))
			res.Acquire(p, n)
			w.mark(p)
			p.Sleep(w.small(r))
			res.Release(n)
		case 9:
			w.res[r.intn(2)].SetCapacity(int64(1 + r.intn(oracleMaxCap)))
		case 10:
			w.q.Wait(p, 1+r.intn(3))
		case 11:
			w.res[r.intn(2)].Use(p, 1, w.small(r))
		case 12, 13:
			if depth >= 2 {
				p.Yield()
				break
			}
			var g *Group
			if r.intn(2) == 0 {
				g = NewGroup(w.s)
			}
			for k, kids := 0, 1+r.intn(2); k < kids; k++ {
				w.spawn(g, fmt.Sprintf("%s.%d.%d", p.name, i, k), r.next(), depth+1)
			}
			if g != nil {
				g.Wait(p)
			}
		case 14:
			if r.intn(3) == 0 {
				return // early exit
			}
			p.Sleep(-time.Microsecond)
		case 15:
			m := w.mus[r.intn(2)]
			m.Lock(p)
			w.conds[r.intn(2)].Signal()
			m.Unlock(p)
		}
		w.mark(p)
	}
}

// runOracle runs the program for one seed and returns its digest.
func runOracle(seed uint64) uint64 {
	s := New(epoch)
	w := &oracleWorld{s: s, q: NewQueue(s, 2e5)}
	for i := range w.mus {
		w.mus[i] = NewMutex(s)
		w.conds[i] = NewCond(s)
		w.res[i] = NewResource(s, oracleMaxCap)
	}
	r := &oracleRand{x: seed * 0x2545f4914f6cdd1d}
	roots := 2 + r.intn(5)
	for i := 0; i < roots; i++ {
		w.spawn(nil, fmt.Sprintf("r%d", i), r.next(), 0)
	}
	// The ticker keeps every program live: it wakes cond waiters and
	// restores capacity a worker may have lowered under a waiter. Its bound
	// turns a program that never finishes into a deadlock report.
	tick := time.Duration(1+r.intn(50)) * time.Microsecond
	s.Go("ticker", func(p *Proc) {
		for n := 0; w.live > 0 && n < 100_000; n++ {
			p.Sleep(tick)
			w.mark(p)
			for i := range w.conds {
				w.conds[i].Broadcast()
				w.res[i].SetCapacity(oracleMaxCap)
			}
		}
	})
	err := s.Run()
	h := fnv.New64a()
	h.Write(w.trace)
	fmt.Fprintf(h, "|%v|%v", err, s.Elapsed())
	return h.Sum64()
}

func TestDispatchOrderOracle(t *testing.T) {
	for i, want := range oracleDigests {
		if got := runOracle(uint64(i)); got != want {
			t.Errorf("seed %d: dispatch digest %#x, pinned %#x", i, got, want)
		}
	}
}

// TestDispatchOrderOracleConcurrent runs the oracle's programs from four
// goroutines at once. Each Sim stays on its own goroutine, but all of them
// share the process-wide coroutine free list, so a coroutine that finished
// a proc for one goroutine's Sim runs the next proc of another's.
func TestDispatchOrderOracleConcurrent(t *testing.T) {
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(oracleDigests); i += workers {
				if got := runOracle(uint64(i)); got != oracleDigests[i] {
					t.Errorf("seed %d: dispatch digest %#x, pinned %#x", i, got, oracleDigests[i])
				}
			}
		}()
	}
	wg.Wait()
}
