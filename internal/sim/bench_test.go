package sim

import (
	"fmt"
	"testing"
	"time"
)

// Kernel microbenchmarks. Every virtual-time event in a CloudyBench cell —
// a sleep, a queue reservation, a mutex handoff — pays one scheduler
// dispatch, so these three benchmarks bound the kernel overhead of every
// experiment. The committed measurement is `go run ./benchmark` (its
// probe.sim.* rows time the same paths); to compare two commits, run:
//
//	go test -run '^$' -bench 'BenchmarkDispatch|BenchmarkSleepWake|BenchmarkQueueContention' -benchtime 1000000x -count 5 ./internal/sim/

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
