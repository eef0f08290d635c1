package sim

import (
	"fmt"
	"testing"
	"time"
)

// Kernel microbenchmarks. Every virtual-time event in a CloudyBench cell —
// a sleep, a queue reservation, a mutex handoff — pays one scheduler
// dispatch, so the first three benchmarks bound the kernel overhead of every
// experiment; the two pairs after them price a continuation against the
// blocks it replaces. The committed measurement is `go run ./benchmark` (its
// probe.sim.* rows time the same paths); to compare two commits, run:
//
//	go test -run '^$' -bench 'BenchmarkDispatch|BenchmarkSleepWake|BenchmarkQueueContention|BenchmarkContendedUse|BenchmarkContendedAcquireSleepRelease|BenchmarkSleepThen|BenchmarkTwoSleeps' -benchtime 1000000x -count 5 ./internal/sim/

// BenchmarkDispatch measures the self-handoff path: a single process
// yielding b.N times. Each yield schedules a wake at the current virtual
// time and immediately dispatches it — the pattern of Yield, zero-delay
// queue reservations, and uncontended mutex handoff. No coroutine switch
// occurs (the process pops its own wake and runs on), so this isolates
// pure scheduler cost: event push, dispatch, bookkeeping.
func BenchmarkDispatch(b *testing.B) {
	b.ReportAllocs()
	s := New(epoch)
	s.Go("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Yield()
		}
	})
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSleepWake measures the cross-process handoff path: two
// processes alternating non-zero sleeps, so every dispatch suspends one
// coroutine and resumes another through Run — the cost of a contended lock
// handoff or any interleaved pair of simulated clients.
func BenchmarkSleepWake(b *testing.B) {
	b.ReportAllocs()
	s := New(epoch)
	for i := 0; i < 2; i++ {
		s.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < b.N/2; j++ {
				p.Sleep(time.Microsecond)
			}
		})
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkQueueContention measures the saturated-service-channel path: 8
// processes hammering one rate-limited Queue, so every Wait pays a
// reservation, a future-time event push into a populated heap, and a
// coroutine switch out and back — the storage-IOPS hot loop of every OLTP
// cell.
func BenchmarkQueueContention(b *testing.B) {
	b.ReportAllocs()
	const workers = 8
	s := New(epoch)
	q := NewQueue(s, 1e9) // 1ns per op: non-zero delay, negligible virtual time
	for i := 0; i < workers; i++ {
		s.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < b.N/workers; j++ {
				q.Wait(p, 1)
			}
		})
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// contend runs 4 workers through op on a two-unit Resource, b.N ops in
// all, so nearly every op queues behind another worker's hold. Two units,
// not one: with a single holder its sleep's end is always the next event,
// and a spelled-out sleep then runs on without a switch.
func contend(b *testing.B, op func(r *Resource, p *Proc)) {
	b.ReportAllocs()
	const workers = 4
	s := New(epoch)
	r := NewResource(s, 2)
	for i := 0; i < workers; i++ {
		s.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < b.N/workers; j++ {
				op(r, p)
			}
		})
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkContendedUse measures a contended CPU charge (node.chargeCPU):
// the admitted worker's hold is its continuation, so it is resumed once,
// to release.
func BenchmarkContendedUse(b *testing.B) {
	contend(b, func(r *Resource, p *Proc) { r.Use(p, 1, time.Microsecond) })
}

// BenchmarkContendedAcquireSleepRelease is BenchmarkContendedUse spelled
// out: the admitted worker is resumed to sleep and again to release.
func BenchmarkContendedAcquireSleepRelease(b *testing.B) {
	contend(b, func(r *Resource, p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(time.Microsecond)
		r.Release(1)
	})
}

// alternate runs two procs through op, b.N ops in all; each op sleeps, so
// every wake switches coroutines.
func alternate(b *testing.B, op func(p *Proc)) {
	b.ReportAllocs()
	s := New(epoch)
	for i := 0; i < 2; i++ {
		s.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < b.N/2; j++ {
				op(p)
			}
		})
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSleepThen measures a wire-then-ack wait (DisaggStore.WriteLog):
// two sleeps for one resume.
func BenchmarkSleepThen(b *testing.B) {
	alternate(b, func(p *Proc) { p.SleepThen(time.Microsecond, time.Microsecond) })
}

// BenchmarkTwoSleeps is BenchmarkSleepThen spelled out: two sleeps, two
// resumes.
func BenchmarkTwoSleeps(b *testing.B) {
	alternate(b, func(p *Proc) {
		p.Sleep(time.Microsecond)
		p.Sleep(time.Microsecond)
	})
}
