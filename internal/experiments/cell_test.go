package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cloudybench/internal/sim"
)

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
