package sim

import (
	"fmt"
	"time"
)

// Mutex is a simulation-aware mutual-exclusion lock. Unlike sync.Mutex it
// suspends the blocked process in virtual time, handing the scheduler baton
// onward, so it is safe to hold across Proc.Sleep. Waiters are served FIFO.
type Mutex struct {
	s       *Sim
	owner   *Proc
	waiters fifo[*Proc]
}

// NewMutex returns a mutex bound to the given simulation.
func NewMutex(s *Sim) *Mutex { return &Mutex{s: s} }

// Lock acquires the mutex, blocking the process in virtual time if needed.
func (m *Mutex) Lock(p *Proc) {
	if m.owner == nil {
		m.owner = p
		return
	}
	if m.owner == p {
		panic("sim: recursive Mutex.Lock by " + p.name)
	}
	m.waiters.push(p)
	m.s.park(p, "mutex")
}

// Unlock releases the mutex, transferring ownership to the oldest waiter.
func (m *Mutex) Unlock(p *Proc) {
	if m.owner != p {
		panic("sim: Mutex.Unlock by non-owner " + p.name)
	}
	if m.waiters.len() == 0 {
		m.owner = nil
	} else {
		next := m.waiters.pop()
		m.owner = next
		m.s.wake(next)
	}
}

// Cond is a simulation-aware condition variable. Because the kernel enforces
// the single-runnable invariant, no companion mutex is required: a process
// checks its predicate, calls Wait if unsatisfied, and re-checks on wakeup.
type Cond struct {
	s       *Sim
	waiters fifo[*Proc]
}

// NewCond returns a condition variable bound to the given simulation.
func NewCond(s *Sim) *Cond { return &Cond{s: s} }

// Wait suspends the process until Signal or Broadcast wakes it. Callers must
// re-check their predicate in a loop, as with sync.Cond.
//
//detlint:hotpath
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(p) //detlint:allow hotalloc(ring growth to the deepest queue seen, then reused)
	c.s.park(p, "cond")
}

// Signal wakes the oldest waiting process, if any.
//
//detlint:hotpath
func (c *Cond) Signal() {
	if c.waiters.len() > 0 {
		c.s.wake(c.waiters.pop())
	}
}

// Broadcast wakes every waiting process.
func (c *Cond) Broadcast() {
	for c.waiters.len() > 0 {
		c.s.wake(c.waiters.pop())
	}
}

// Group waits for a collection of processes to finish, mirroring
// sync.WaitGroup in virtual time.
type Group struct {
	s     *Sim
	count int
	cond  *Cond
}

// NewGroup returns a wait group bound to the given simulation.
func NewGroup(s *Sim) *Group { return &Group{s: s, cond: NewCond(s)} }

// Add increments the group counter by n.
func (g *Group) Add(n int) { g.count += n }

// Done decrements the group counter, waking waiters when it reaches zero.
func (g *Group) Done() {
	g.count--
	if g.count < 0 {
		panic("sim: Group counter went negative")
	}
	if g.count == 0 {
		g.cond.Broadcast()
	}
}

// Wait blocks the process until the group counter reaches zero.
func (g *Group) Wait(p *Proc) {
	for g.count != 0 {
		g.cond.Wait(p)
	}
}

// Go spawns fn as a process tracked by the group.
func (g *Group) Go(name string, fn func(p *Proc)) {
	g.Add(1)
	g.s.Go(name, func(p *Proc) {
		defer g.Done()
		fn(p)
	})
}

// Resource models a preemptible pool of capacity units (for example milli-
// vCores of a database node). Processes acquire an amount, hold it across
// virtual time, and release it. Capacity can be resized at runtime, which is
// how autoscalers act on a live node: raising capacity admits queued work
// immediately, lowering it drains as holders release. Waiters are served
// FIFO; a large request at the head blocks smaller ones behind it (fairness
// over throughput, as in a real admission queue).
type Resource struct {
	s       *Sim
	cap     int64
	used    int64
	waiters fifo[resWaiter]
	peak    int64 // high-water mark of used

	lastAccrue time.Duration
	usedInt    float64 // integral of used over time, in unit-seconds
	capInt     float64 // integral of capacity over time, in unit-seconds
}

type resWaiter struct {
	p *Proc
	n int64
}

// NewResource returns a resource pool with the given capacity in abstract
// units (callers choose the unit, e.g. milli-vCores).
func NewResource(s *Sim, capacity int64) *Resource {
	if capacity < 0 {
		panic("sim: negative Resource capacity")
	}
	return &Resource{s: s, cap: capacity}
}

// Acquire blocks the process until n units are available, then claims them.
//
//detlint:hotpath
func (r *Resource) Acquire(p *Proc, n int64) {
	if n <= 0 {
		panic(fmt.Sprintf("sim: Resource.Acquire of %d units", n))
	}
	if r.waiters.len() == 0 && r.used+n <= r.cap {
		r.accrue()
		r.used += n
		if r.used > r.peak {
			r.peak = r.used
		}
		return
	}
	r.waiters.push(resWaiter{p: p, n: n}) //detlint:allow hotalloc(ring growth to the deepest queue seen, then reused)
	r.s.park(p, "resource")
}

// Release returns n units to the pool and admits eligible waiters.
//
//detlint:hotpath
func (r *Resource) Release(n int64) {
	if n <= 0 {
		panic(fmt.Sprintf("sim: Resource.Release of %d units", n))
	}
	r.accrue()
	r.used -= n
	if r.used < 0 {
		panic("sim: Resource over-released")
	}
	r.admit()
}

// SetCapacity resizes the pool. Increases admit queued waiters immediately;
// decreases take effect as current holders release (capacity may be below
// usage transiently, exactly like scaling down a busy node).
func (r *Resource) SetCapacity(capacity int64) {
	if capacity < 0 {
		panic("sim: negative Resource capacity")
	}
	r.accrue()
	r.cap = capacity
	r.admit()
}

// accrue folds elapsed time into the usage and capacity integrals. It must
// be called before any change to used or cap.
func (r *Resource) accrue() {
	dt := r.s.now - r.lastAccrue
	if dt > 0 {
		sec := dt.Seconds()
		r.usedInt += float64(r.used) * sec
		r.capInt += float64(r.cap) * sec
		r.lastAccrue = r.s.now
	}
}

// Integrals returns the cumulative usage and capacity integrals in
// unit-seconds up to the current virtual time. Callers snapshot these at
// window boundaries and diff to obtain per-window resource consumption.
func (r *Resource) Integrals() (usedUnitSeconds, capUnitSeconds float64) {
	r.accrue()
	return r.usedInt, r.capInt
}

func (r *Resource) admit() {
	r.accrue()
	for r.waiters.len() > 0 && r.used+r.waiters.peek().n <= r.cap {
		w := r.waiters.pop()
		r.used += w.n
		if r.used > r.peak {
			r.peak = r.used
		}
		r.s.wake(w.p)
	}
}

// Capacity returns the current capacity.
func (r *Resource) Capacity() int64 { return r.cap }

// Peak returns the high-water mark of held units.
func (r *Resource) Peak() int64 { return r.peak }

// Waiting returns the number of queued acquirers.
func (r *Resource) Waiting() int { return r.waiters.len() }

// Use acquires n units, holds them for d of virtual time, and releases them.
// It is the standard way to model a CPU slice or similar occupancy. A
// contended Use queues with d as its continuation (see dispatch), so the
// admitted proc is resumed once, to release, instead of once to sleep and
// once more to release.
//
//detlint:hotpath
func (r *Resource) Use(p *Proc, n int64, d time.Duration) {
	if n > 0 && (r.waiters.len() > 0 || r.used+n > r.cap) {
		r.waiters.push(resWaiter{p: p, n: n}) //detlint:allow hotalloc(ring growth to the deepest queue seen, then reused)
		p.then, p.hasThen = d, true
		r.s.park(p, "resource")
	} else {
		r.Acquire(p, n) // uncontended, or n <= 0, which Acquire rejects
		p.Sleep(d)
	}
	r.Release(n)
}
