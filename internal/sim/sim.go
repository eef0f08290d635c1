// Package sim provides a deterministic discrete-event simulation kernel.
//
// A simulation consists of processes (procs, spawned with Sim.Go) that
// advance a shared virtual clock by sleeping (Proc.Sleep) and by blocking on
// sim-aware synchronization primitives (Mutex, Cond, Resource, Queue). Each
// proc runs on a coroutine, and exactly one proc executes at a time: a proc
// runs until it blocks, then the kernel pops the next (time, seq) event and
// resumes that event's proc. Consequently process code needs no locking of
// its own — processes can never observe each other mid-step — and a given
// simulation program produces an identical event order on every run.
//
// A Sim belongs to the goroutine that builds and runs it, and no other
// goroutine may call into it. Run resumes the procs' coroutines one at a
// time on that goroutine's behalf, so the Sim, and everything its procs
// touch, needs no lock; concurrent simulations (one experiment cell per
// core) each use their own Sim.
//
// Virtual time bears no relation to wall-clock time: a simulated hour costs
// only the CPU time of the events inside it. All CloudyBench evaluators run
// on this kernel so that minute-granularity cloud experiments finish in
// milliseconds and remain reproducible.
//
// Because kernel overhead is 100% of an experiment's wall-clock cost, the
// scheduler is built around four fast paths: a hand-rolled binary heap over
// []event (no container/heap interface boxing, no per-push allocation); a
// "runnext" direct-handoff slot that lets a wake scheduled at the current
// virtual time bypass the heap entirely — the dominant case for Yield,
// mutex handoff, and zero-delay queue reservations; inline dispatch: a
// blocking proc pops the next event itself, and when that event is its own
// wake it runs on without any coroutine switch; and continuations: a proc
// that would wake only to sleep again (a contended Resource.Use, a
// Proc.SleepThen) leaves that sleep with the kernel, which books it when
// the wake is dispatched, without resuming the proc.
package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// Sim is a discrete-event simulation instance. Create one with New, spawn
// processes with Go, then call Run to execute the simulation to completion.
type Sim struct {
	start  time.Time     // virtual epoch
	now    time.Duration // virtual time since start
	events []event       // hand-rolled binary min-heap ordered by (at, seq)

	// runnext is the direct-handoff slot: the first wake scheduled at the
	// current virtual time parks here instead of in the heap. It holds the
	// smallest seq among same-time events pushed after it, so in the common
	// case (one wake between dispatches) the next dispatch pops it with two
	// comparisons and zero heap traffic. Valid only when runnextSet; while
	// set, runnext.at == now (time cannot advance past a pending same-time
	// event).
	runnext    event
	runnextSet bool

	seq   uint64  // dispatch tiebreaker for determinism
	procs []*Proc // live (not yet exited) processes; Proc.idx is each one's slot
	err   error
}

// Proc is a simulation process handle. Every blocking kernel operation takes
// the calling process so the scheduler knows who is giving up the baton.
type Proc struct {
	sim  *Sim
	name string
	fn   func(*Proc) // the body, until its coroutine starts it
	co   *coro       // the coroutine running the body, from first dispatch to exit
	idx  int         // slot in sim.procs

	// why records the reason for the most recent block ("sleep", "mutex",
	// ...). It is written on the block path and read only by deadlock
	// diagnostics, where every live process is by definition blocked and
	// its last-written reason is current. Keeping it here, instead of in a
	// kernel-side map, takes the bookkeeping off the dispatch hot path.
	why string

	// then is the continuation: when hasThen is set, dispatching the
	// proc's next wake sleeps it for then instead of resuming it (see
	// dispatch).
	then    time.Duration
	hasThen bool
}

// coro is a reusable coroutine: an iter.Pull pair that runs one proc's body
// after another. Run resumes it; it yields back to Run when its proc blocks
// on another proc's wake, exits or panics.
type coro struct {
	resume func() (step, bool)
	stop   func()
	yield  func(step) bool
	p      *Proc // the proc whose body the coroutine runs next
}

// step is what a coroutine yields to Run: the proc to resume next (nil when
// no event is pending), and whether the coroutine's proc exited, which
// frees the coroutine.
type step struct {
	next     *Proc
	exited   bool
	panicked error // set when the proc exited by panicking
}

// loop is the coroutine body: run the assigned proc, hand Run the next
// proc, and wait to be assigned another.
func (c *coro) loop(yield func(step) bool) {
	c.yield = yield
	for {
		p := c.p
		st := step{exited: true}
		if st.panicked = p.run(); st.panicked == nil {
			st.next = p.sim.exit(p)
		}
		if !yield(st) {
			return
		}
	}
}

// run executes p's body. A panic comes back as an error naming the proc and
// carrying its stack at the panic, which Run's own stack would not show.
func (p *Proc) run() (err error) {
	defer func() {
		if v := recover(); v != nil {
			cause, ok := v.(error)
			if !ok {
				cause = fmt.Errorf("%v", v)
			}
			err = fmt.Errorf("sim: proc %s panicked: %w\n\n%s", p.name, cause, debug.Stack())
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	return nil
}

// idle holds finished coroutines for reuse by every Sim in the process: an
// experiment cell is a fresh Sim with tens of procs, and a new iter.Pull
// costs about a dozen allocations. The bound stops a burst of procs from
// pinning its goroutines for the life of the process.
var idle struct {
	sync.Mutex
	free []*coro
}

const maxIdle = 256

func getCoro() *coro {
	idle.Lock()
	if n := len(idle.free); n > 0 {
		c := idle.free[n-1]
		idle.free[n-1] = nil
		idle.free = idle.free[:n-1]
		idle.Unlock()
		return c
	}
	idle.Unlock()
	c := &coro{}
	c.resume, c.stop = iter.Pull(c.loop)
	return c
}

func putCoro(c *coro) {
	c.p = nil
	idle.Lock()
	if len(idle.free) < maxIdle {
		idle.free = append(idle.free, c)
		idle.Unlock()
		return
	}
	idle.Unlock()
	c.stop()
}

// maxDuration is the saturation ceiling for virtual-time arithmetic:
// overflowing computations clamp here instead of wrapping negative.
const maxDuration = time.Duration(1<<63 - 1)

type event struct {
	at  time.Duration
	seq uint64
	p   *Proc
}

// lessEv orders events by (at, seq): earlier virtual time first, spawn/wake
// order breaking ties — the determinism contract.
func lessEv(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts ev into the event heap (sift-up over the raw slice; no
// interface boxing, amortized zero allocation once the backing array grows).
func (s *Sim) heapPush(ev event) {
	s.events = append(s.events, ev)
	h := s.events
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !lessEv(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// heapPop removes and returns the minimum event.
func (s *Sim) heapPop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // drop the *Proc reference
	s.events = h[:n]
	h = s.events
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && lessEv(h[r], h[l]) {
			m = r
		}
		if !lessEv(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// New returns a simulation whose virtual clock starts at the given epoch.
func New(start time.Time) *Sim {
	return NewAt(start, 0)
}

// NewAt returns a simulation whose virtual clock starts at the given epoch
// with elapsed virtual time already on the clock. Memoized warm-up forks use
// it so a measurement phase resumed from a snapshot reads the same Elapsed()
// values — and therefore stamps the same windows and timestamps — as the
// continuous run it replaces.
func NewAt(start time.Time, elapsed time.Duration) *Sim {
	return &Sim{start: start, now: elapsed}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.start.Add(s.now) }

// Elapsed returns the virtual time elapsed since the simulation epoch.
func (s *Sim) Elapsed() time.Duration { return s.now }

// Go spawns a new simulation process. The process begins executing at the
// current virtual time, after the spawning process next blocks (or, for
// processes spawned before Run, when Run starts). It may be called from
// inside another process or, before Run, by the Sim's owner.
func (s *Sim) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{sim: s, name: name, fn: fn, idx: len(s.procs), why: "start"}
	s.procs = append(s.procs, p)
	s.push(s.now, p)
	return p
}

func (s *Sim) push(at time.Duration, p *Proc) {
	s.seq++
	ev := event{at: at, seq: s.seq, p: p}
	if at == s.now && !s.runnextSet {
		s.runnext = ev
		s.runnextSet = true
		return
	}
	s.heapPush(ev)
}

// wake schedules p to resume at the current virtual time. The woken process
// runs once the current process blocks.
func (s *Sim) wake(p *Proc) { s.push(s.now, p) }

// park blocks p until an event pushed for it is dispatched. p dispatches the
// next event itself: when that is its own wake it runs on with no switch;
// otherwise it yields the next proc to Run and sleeps until Run resumes it.
//
//detlint:hotpath
func (s *Sim) park(p *Proc, why string) {
	p.why = why
	if next := s.dispatch(); next != p {
		p.co.yield(step{next: next})
	}
}

// dispatch advances virtual time to the next event and returns its process
// — the DES inner loop, entered once per block/wake edge. It returns nil
// when no event is pending: the run is over, or, with live processes left,
// deadlocked (s.err says so).
//
// An event whose proc holds a continuation is not returned: the proc
// would wake only to call Sleep(then), so dispatch books that sleep itself,
// at the same instant and with the same seq the proc would have taken, and
// pops on. Nothing runs between the wake and the sleep either way, so the
// event order is the one the spelled-out program produces.
//
//detlint:hotpath
func (s *Sim) dispatch() *Proc {
	for {
		var ev event
		switch {
		// The runnext slot wins unless the heap holds a same-time event
		// pushed earlier (smaller seq) — runnext.at == now is never later
		// than any heap entry, so two comparisons decide.
		case s.runnextSet && (len(s.events) == 0 || lessEv(s.runnext, s.events[0])):
			ev = s.runnext
			s.runnext = event{}
			s.runnextSet = false
		case len(s.events) > 0:
			ev = s.heapPop()
		default:
			if len(s.procs) > 0 {
				s.err = s.deadlockError()
			}
			return nil
		}
		if ev.at < s.now {
			panic(fmt.Sprintf("sim: time went backwards: %v -> %v", s.now, ev.at))
		}
		s.now = ev.at
		if !ev.p.hasThen {
			return ev.p
		}
		s.continueSleep(ev.p)
	}
}

// continueSleep books p's continuation as the sleep p would have called.
// It stays out of dispatch's loop body so that the common path, a wake
// with no continuation, compiles tight: inlined there, BenchmarkDispatch
// ran about a third slower.
//
//go:noinline
func (s *Sim) continueSleep(p *Proc) {
	p.hasThen = false
	p.why = "sleep"
	s.push(s.after(p.then), p)
}

// deadlockError reconstructs the blocked-process diagnostic. It runs only
// when every live process is blocked with no pending events, so each
// process's last-recorded block reason is its current one — a terminal
// path, excluded from dispatch's allocation budget.
//
//detlint:coldpath
func (s *Sim) deadlockError() error {
	names := make([]string, 0, len(s.procs))
	for _, p := range s.procs {
		names = append(names, fmt.Sprintf("%s (%s)", p.name, p.why))
	}
	sort.Strings(names)
	return fmt.Errorf("sim: deadlock at t=%v: %d process(es) blocked with no pending events: %s",
		s.now, len(names), strings.Join(names, ", "))
}

// exit retires p and dispatches the next event, returning its process.
func (s *Sim) exit(p *Proc) *Proc {
	last := len(s.procs) - 1
	s.procs[p.idx] = s.procs[last]
	s.procs[p.idx].idx = p.idx
	s.procs[last] = nil
	s.procs = s.procs[:last]
	return s.dispatch()
}

// Run executes the simulation until every process has exited, resuming
// each dispatched process on its coroutine in turn. It returns a deadlock
// error if all remaining processes are blocked with no pending events;
// otherwise nil. A process that panics makes Run panic with an error that
// names the process and carries its stack.
func (s *Sim) Run() error {
	for p := s.dispatch(); p != nil; {
		c := p.co
		if c == nil {
			c = getCoro()
			c.p, p.co = p, c
		}
		st, _ := c.resume()
		if st.exited {
			p.co = nil
			putCoro(c)
			if st.panicked != nil {
				panic(st.panicked)
			}
		}
		p = st.next
	}
	return s.err
}

// Sleep suspends the calling process for d of virtual time. Negative
// durations sleep zero time (yielding to other runnable processes).
func (p *Proc) Sleep(d time.Duration) {
	s := p.sim
	s.push(s.after(d), p)
	s.park(p, "sleep")
}

// SleepThen is Sleep(d) followed by Sleep(then), with the second sleep
// booked by the kernel when the first one's wake is dispatched: the proc
// is resumed once, not twice. Nothing may need to run at the instant
// between the two sleeps.
func (p *Proc) SleepThen(d, then time.Duration) {
	p.then, p.hasThen = then, true
	p.Sleep(d)
}

// after returns the virtual instant d from now. Negative durations count
// as zero, and an overflowing sum (a pathologically large delay) clamps to
// the end of time instead of wrapping negative.
func (s *Sim) after(d time.Duration) time.Duration {
	if d < 0 {
		d = 0
	}
	at := s.now + d
	if at < s.now {
		at = maxDuration
	}
	return at
}

// Yield lets any other runnable process scheduled at the current virtual
// time execute before the caller continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Now returns the simulation's current virtual time.
func (p *Proc) Now() time.Time { return p.sim.Now() }

// Elapsed returns virtual time since the simulation epoch.
func (p *Proc) Elapsed() time.Duration { return p.sim.now }
