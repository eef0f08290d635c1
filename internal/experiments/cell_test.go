package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cloudybench/internal/sim"
)

// TestParallelCellsAreByteIdentical is the parallel cell runner's
// determinism contract: the same experiments must render byte-identically
// with sequential cells, with a worker pool, and regardless of how many OS
// threads Go may schedule underneath (GOMAXPROCS). This extends the
// evaluator-level cross-GOMAXPROCS test up through the fan-out layer. Each
// leg runs in a session of its own, so every leg computes every cell, warm-
// ups included; the sequential leg's session then becomes the shared mini
// session, whose cells the goldens render.
func TestParallelCellsAreByteIdentical(t *testing.T) {
	defer SetParallelism(0)
	ids := []string{"crash", "f5", "f6", "lag", "partition", "soak", "suites"}
	leg := func(name string) (*Session, []string) {
		s := NewSession(mini)
		outs := make([]string, len(ids))
		for i, id := range ids {
			out, err := s.Run(id)
			if err != nil {
				t.Fatal(name, id, err)
			}
			outs[i] = out
		}
		return s, outs
	}
	SetParallelism(1)
	seqSession, seq := leg("parallel=1")
	SetParallelism(4)
	_, par := leg("parallel=4")
	prev := runtime.GOMAXPROCS(1)
	_, pinned := leg("GOMAXPROCS=1") // 4 workers multiplexed onto one OS thread
	runtime.GOMAXPROCS(prev)
	for i, id := range ids {
		if par[i] != seq[i] {
			t.Errorf("%s: parallel output differs from sequential:\n--- parallel=1:\n%s\n--- parallel=4:\n%s", id, seq[i], par[i])
		}
		if pinned[i] != seq[i] {
			t.Errorf("%s: output differs at GOMAXPROCS=1:\n%s\nvs\n%s", id, pinned[i], seq[i])
		}
	}
	if !t.Failed() {
		adopt(seqSession)
	}
}

// TestSessionCellsRunsEachMissingKeyOnce pins the memo's contract on cheap
// fake cells at four workers: results come back in key order, only keys
// the memo lacks are computed, a key named twice in one call is computed
// once, and a second call computes nothing.
func TestSessionCellsRunsEachMissingKeyOnce(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	type fakeCell struct{ n int }
	var runs [8]atomic.Int64
	run := func(k fakeCell) int {
		runs[k.n].Add(1)
		return 10 * k.n
	}
	s := NewSession(tiny)
	sessionCells(s, []fakeCell{{1}, {2}}, run)
	keys := []fakeCell{{3}, {1}, {3}, {4}, {2}, {4}, {5}}
	want := []int{30, 10, 30, 40, 20, 40, 50}
	for call := 1; call <= 2; call++ {
		if got := sessionCells(s, keys, run); !slices.Equal(got, want) {
			t.Errorf("call %d returned %v, want %v", call, got, want)
		}
		for n := range runs {
			want := int64(0)
			if n >= 1 && n <= 5 {
				want = 1
			}
			if got := runs[n].Load(); got != want {
				t.Errorf("after call %d, cell %d ran %d times, want %d", call, n, got, want)
			}
		}
	}
}

// TestRunCellsSurfacesProcPanic checks that a proc panicking inside one cell
// of a parallel fan-out reaches runCells' caller, naming the proc, while the
// other cells' simulations run to completion on the same worker pool.
func TestRunCellsSurfacesProcPanic(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(4)
	const cells, bad = 16, 11
	defer func() {
		got := fmt.Sprint(recover())
		if !strings.Contains(got, "proc cell11 panicked") || !strings.Contains(got, "cell 11 failed") {
			t.Fatalf("runCells panicked with %q, want cell11's panic", got)
		}
	}()
	runCells(cells, func(i int) time.Duration {
		s := sim.New(time.Time{})
		for j := 0; j < 4; j++ {
			s.Go(fmt.Sprintf("cell%d", i), func(p *sim.Proc) {
				p.Sleep(time.Duration(j+1) * time.Millisecond)
				if i == bad && j == 2 {
					panic(fmt.Sprintf("cell %d failed", i))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Error(err)
		}
		return s.Elapsed()
	})
	t.Fatal("runCells returned after a cell's proc panicked")
}
