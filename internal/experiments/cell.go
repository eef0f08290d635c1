package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Every experiment is a grid of independent cells — one (SUT, SF, mix,
// concurrency, pattern, ...) combination, each building its own sim.Sim —
// so cells can execute on all cores at once. runCells is the one fan-out,
// and sessionCells (registry.go) its one caller: every driver reads its
// cells through the session's memo. Rendering always happens afterwards,
// from the results slice in declaration order, so the report is
// byte-identical to a sequential run no matter how many workers raced.

// parallelism is the cell worker-pool width. Guarded by parMu; read at the
// start of each fan-out.
var (
	parMu       sync.Mutex
	parallelism = runtime.GOMAXPROCS(0)
)

// SetParallelism sets how many experiment cells may execute concurrently.
// n < 1 resets to all cores (GOMAXPROCS); 1 restores strictly sequential
// execution. Results are identical either way — only wall-clock changes.
func SetParallelism(n int) {
	parMu.Lock()
	defer parMu.Unlock()
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	parallelism = n
}

// runCells executes fn(0..n-1) on a bounded worker pool and returns the
// results indexed by cell. Each cell must be self-contained (its own Sim,
// collector, and deployment — true for every evaluator entry point). A
// panicking cell is re-panicked on the caller's goroutine, preserving the
// sequential path's failure behaviour.
func runCells[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	parMu.Lock()
	workers := min(parallelism, n)
	parMu.Unlock()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var (
		next atomic.Int64
		//detlint:allow rawgo(joins the blessed cell pool below; cells are independent Sims and results merge in declaration order)
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//detlint:allow rawgo(blessed cell worker pool — the one sanctioned fan-out; each cell owns its Sim, output is merged by cell index)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
						}
					}()
					out[i] = fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}
