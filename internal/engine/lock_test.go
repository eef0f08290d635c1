package engine

import (
	"errors"
	"testing"
	"time"

	"cloudybench/internal/sim"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestLockSharedCompatible(t *testing.T) {
	s := sim.New(epoch)
	lt := NewLockTable(s)
	concurrent := 0
	max := 0
	for i := 0; i < 3; i++ {
		i := i
		s.Go("reader", func(p *sim.Proc) {
			if err := lt.Acquire(p, uint64(i+1), "k", LockShared); err != nil {
				t.Error(err)
				return
			}
			concurrent++
			if concurrent > max {
				max = concurrent
			}
			p.Sleep(time.Second)
			concurrent--
			lt.Release(uint64(i+1), "k")
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if max != 3 {
		t.Fatalf("max concurrent S holders = %d, want 3", max)
	}
	if lt.HeldLocks() != 0 {
		t.Fatal("locks leaked")
	}
}

func TestLockExclusiveBlocksAndFIFO(t *testing.T) {
	s := sim.New(epoch)
	lt := NewLockTable(s)
	var order []uint64
	for i := 0; i < 3; i++ {
		txn := uint64(i + 1)
		s.Go("writer", func(p *sim.Proc) {
			p.Sleep(time.Duration(txn) * time.Millisecond)
			if err := lt.Acquire(p, txn, "k", LockExclusive); err != nil {
				t.Error(err)
				return
			}
			order = append(order, txn)
			p.Sleep(100 * time.Millisecond)
			lt.Release(txn, "k")
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("grant order = %v, want FIFO", order)
	}
	waits, timeouts := lt.Stats()
	if waits != 2 || timeouts != 0 {
		t.Fatalf("waits/timeouts = %d/%d, want 2/0", waits, timeouts)
	}
}

func TestLockSharedQueueBehindExclusiveWaiter(t *testing.T) {
	// S1 holds; X2 waits; S3 must queue behind X2 (no starvation of writers).
	s := sim.New(epoch)
	lt := NewLockTable(s)
	var events []string
	s.Go("s1", func(p *sim.Proc) {
		_ = lt.Acquire(p, 1, "k", LockShared)
		p.Sleep(10 * time.Millisecond)
		lt.Release(1, "k")
	})
	s.Go("x2", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		_ = lt.Acquire(p, 2, "k", LockExclusive)
		events = append(events, "x2")
		p.Sleep(10 * time.Millisecond)
		lt.Release(2, "k")
	})
	s.Go("s3", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond)
		_ = lt.Acquire(p, 3, "k", LockShared)
		events = append(events, "s3")
		lt.Release(3, "k")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0] != "x2" || events[1] != "s3" {
		t.Fatalf("events = %v, want x2 before s3", events)
	}
}

func TestLockReacquireIsNoop(t *testing.T) {
	s := sim.New(epoch)
	lt := NewLockTable(s)
	s.Go("p", func(p *sim.Proc) {
		if err := lt.Acquire(p, 1, "k", LockExclusive); err != nil {
			t.Error(err)
		}
		if err := lt.Acquire(p, 1, "k", LockExclusive); err != nil {
			t.Error(err)
		}
		// X holder asking for S is also satisfied.
		if err := lt.Acquire(p, 1, "k", LockShared); err != nil {
			t.Error(err)
		}
		lt.Release(1, "k")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLockUpgrade(t *testing.T) {
	s := sim.New(epoch)
	lt := NewLockTable(s)
	var upgraded time.Duration
	s.Go("upgrader", func(p *sim.Proc) {
		_ = lt.Acquire(p, 1, "k", LockShared)
		p.Sleep(time.Millisecond)
		if err := lt.Acquire(p, 1, "k", LockExclusive); err != nil {
			t.Error(err)
			return
		}
		upgraded = p.Elapsed()
		lt.Release(1, "k")
	})
	s.Go("other-reader", func(p *sim.Proc) {
		_ = lt.Acquire(p, 2, "k", LockShared)
		p.Sleep(10 * time.Millisecond)
		lt.Release(2, "k")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Upgrade must wait for the other S holder to release at 10ms.
	if upgraded != 10*time.Millisecond {
		t.Fatalf("upgrade granted at %v, want 10ms", upgraded)
	}
}

func TestLockTimeoutOnDeadlock(t *testing.T) {
	s := sim.New(epoch)
	lt := NewLockTable(s)
	lt.timeout = 50 * time.Millisecond
	timeouts := 0
	done := 0
	// Classic AB-BA deadlock; the timeout must break it.
	run := func(txn uint64, first, second string) {
		s.Go("t", func(p *sim.Proc) {
			if err := lt.Acquire(p, txn, first, LockExclusive); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(time.Millisecond)
			if err := lt.Acquire(p, txn, second, LockExclusive); err != nil {
				if !errors.Is(err, ErrLockTimeout) {
					t.Errorf("unexpected error %v", err)
				}
				timeouts++
				lt.Release(txn, first)
				return
			}
			done++
			lt.Release(txn, second)
			lt.Release(txn, first)
		})
	}
	run(1, "a", "b")
	run(2, "b", "a")
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if timeouts == 0 {
		t.Fatal("deadlock did not produce a timeout")
	}
	if timeouts+done != 2 {
		t.Fatalf("timeouts=%d done=%d", timeouts, done)
	}
	if lt.HeldLocks() != 0 {
		t.Fatal("locks leaked after deadlock recovery")
	}
}

func TestLockReleaseUnknownKeyHarmless(t *testing.T) {
	s := sim.New(epoch)
	lt := NewLockTable(s)
	lt.Release(1, "never-held")
	lt.Release(1, "a")
	lt.Release(1, "b")
	if lt.HeldLocks() != 0 {
		t.Fatal("phantom locks")
	}
}

// TestLockTableRecyclesDrainedStates pins the lock table's memory to the keys
// locked at once: every drained state leaves the table for the free-list, so
// a soak holds no state for keys it locked days ago, and a pass over keys the
// table has never seen reuses those states without allocating.
func TestLockTableRecyclesDrainedStates(t *testing.T) {
	const n = 500
	s := sim.New(epoch)
	lt := NewLockTable(s)
	key := func(buf []byte, pass, i int) []byte {
		return AppendKey(append(buf[:0], "orders\x00"...), Int(int64(pass*n+i)))
	}
	states := make([]*lockState, 0, n)
	var buf []byte
	pass := func(pass int) {
		states = states[:0]
		for i := 0; i < n; i++ {
			buf = key(buf, pass, i)
			st, fresh, err := lt.AcquireKey(nil, 1, buf, LockExclusive)
			if err != nil || !fresh {
				t.Fatalf("pass %d key %d: fresh=%v err=%v", pass, i, fresh, err)
			}
			states = append(states, st)
		}
		if lt.HeldLocks() != n {
			t.Fatalf("pass %d: %d keys held, want %d", pass, lt.HeldLocks(), n)
		}
		lt.releaseAll(1, states)
	}
	pass(0)
	if lt.HeldLocks() != 0 || len(lt.free) != n {
		t.Fatalf("after release: %d live states, %d on the free-list; want 0 and %d", lt.HeldLocks(), len(lt.free), n)
	}
	for _, b := range lt.buckets {
		if b != nil {
			t.Fatal("a drained state is still linked into the table")
		}
	}
	next := 1
	if allocs := testing.AllocsPerRun(5, func() { pass(next); next++ }); allocs != 0 {
		t.Fatalf("a pass over %d new keys allocated %v times, want 0", n, allocs)
	}
	if len(lt.free) != n {
		t.Fatalf("free-list holds %d states, want %d", len(lt.free), n)
	}
}
