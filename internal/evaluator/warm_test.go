package evaluator

import (
	"sync"
	"testing"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
)

// TestWarmCacheHitMatchesMissMatchesUncached pins the memoization contract:
// a cache miss (first cell), a cache hit (second identical cell), and a
// fully uncached run must all produce byte-identical results — the cache
// may only save wall-clock, never perturb the measurement.
func TestWarmCacheHitMatchesMissMatchesUncached(t *testing.T) {
	base := OLTPConfig{
		Kind: cdb.CDB1, SF: 1, Mix: core.MixReadWrite, Concurrency: 12,
		Warmup: 500 * time.Millisecond, Measure: time.Second, Seed: 7,
	}
	uncached := RunOLTP(base)

	cache := NewWarmCache()
	cached := base
	cached.Warm = cache
	miss := RunOLTP(cached)
	hit := RunOLTP(cached)

	if miss != uncached {
		t.Errorf("cache miss result differs from uncached run:\nmiss:     %+v\nuncached: %+v", miss, uncached)
	}
	if hit != uncached {
		t.Errorf("cache hit result differs from uncached run:\nhit:      %+v\nuncached: %+v", hit, uncached)
	}
	if n := len(cache.entries); n != 1 {
		t.Errorf("cache holds %d warm-ups, want 1", n)
	}

	// A different measure window shares the warm key: the warm-up must be
	// reused (one warm-up still) and the longer run still measures real work.
	longer := cached
	longer.Measure = 2 * time.Second
	lr := RunOLTP(longer)
	if n := len(cache.entries); n != 1 {
		t.Errorf("cache holds %d warm-ups after shared-key reuse, want 1", n)
	}
	if lr.TPS <= 0 {
		t.Errorf("reused-warm-up run measured no throughput: %+v", lr)
	}

	// A different seed is a different warm key and must recompute.
	other := cached
	other.Seed = 8
	RunOLTP(other)
	if n := len(cache.entries); n != 2 {
		t.Errorf("cache holds %d warm-ups after a distinct key, want 2", n)
	}
}

// TestForkedIUDCellsMatchSequential runs insert/update/delete cells forked
// from one warm-up on several goroutines at once and requires the results
// of a sequential, uncached run. The forks share the snapshot's rows, whose
// strings view the warm-up's generator slabs; every fork deploys its own
// DBs with generators, and so string slabs, of their own. A slab shared
// across cells would be a data race under -race, and would make the
// concurrent cells diverge without it.
func TestForkedIUDCellsMatchSequential(t *testing.T) {
	base := OLTPConfig{
		Kind: cdb.CDB1, SF: 1, Mix: core.IUDMix(60, 30, 10), Concurrency: 8,
		Replicas: 2, Warmup: 400 * time.Millisecond, Seed: 7,
	}
	measures := []time.Duration{300, 400, 500, 600}
	cell := func(i int, warm *WarmCache) OLTPResult {
		c := base
		c.Measure = measures[i] * time.Millisecond
		c.Warm = warm
		return RunOLTP(c)
	}
	want := make([]OLTPResult, len(measures))
	for i := range measures {
		if want[i] = cell(i, nil); want[i].TPS <= 0 {
			t.Fatalf("cell %d measured no throughput: %+v", i, want[i])
		}
	}
	cache := NewWarmCache()
	got := make([]OLTPResult, len(measures))
	var wg sync.WaitGroup
	for i := range measures {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = cell(i, cache)
		}()
	}
	wg.Wait()
	for i := range measures {
		if got[i] != want[i] {
			t.Errorf("cell %d: concurrent fork differs from sequential run:\ngot:  %+v\nwant: %+v", i, got[i], want[i])
		}
	}
	if n := len(cache.entries); n != 1 {
		t.Errorf("cache holds %d warm-ups for one warm key, want 1", n)
	}
}

// BenchmarkWarmupMemo quantifies the tentpole's sweep-level win: a
// three-cell sweep sharing one warm key, with and without memoization. The
// memoized variant pays one warm-up per iteration instead of three.
func BenchmarkWarmupMemo(b *testing.B) {
	cells := func(warm *WarmCache) {
		for _, measure := range []time.Duration{400, 800, 1200} {
			RunOLTP(OLTPConfig{
				Kind: cdb.CDB1, SF: 1, Mix: core.MixReadWrite, Concurrency: 12,
				Warmup: time.Second, Measure: measure * time.Millisecond,
				Seed: 7, Warm: warm,
			})
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cells(nil)
		}
	})
	b.Run("memoized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cells(NewWarmCache()) // fresh cache per iteration: 1 warm-up, 3 cells
		}
	})
}
