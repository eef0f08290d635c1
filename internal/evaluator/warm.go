package evaluator

import (
	"sync"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/storage"
)

// Warm-up memoization (DESIGN.md §15). Every RunOLTP executes in two phases:
// a warm-up phase that loads the cluster and drains replication to a
// quiescent point, and a measurement phase that deploys a fresh cluster,
// restores the warm-up's snapshot into it, and runs the measured window on a
// virtual clock pre-advanced to the snapshot offset (sim.NewAt). Because the
// measurement phase always starts from a snapshot — whether that snapshot
// was just computed or pulled from a cache — a cache hit is byte-identical
// to a miss, and both to a run with no cache at all.

// WarmKey identifies one warm-up: every OLTPConfig field that influences the
// pre-measurement state. Measure is excluded (it only extends the fork);
// Tracer and Warm are instrumentation, not workload.
type WarmKey struct {
	Kind         cdb.Kind
	SF           int
	Mix          core.Mix
	Concurrency  int
	Distribution string
	Replicas     int
	Warmup       time.Duration
	BufferBytes  int64
	Seed         int64
}

type nodeWarmState struct {
	db  engine.DBSnapshot
	buf storage.BufSnapshot
}

// WarmSnapshot is the quiescent post-warm-up state of one OLTP deployment:
// per-node engine and buffer-pool snapshots, the shared remote pool (CDB4),
// the collector (latency percentiles span warm-up and measurement, so
// warm-up samples must carry over), and the virtual-time offset at which the
// snapshot was taken.
type WarmSnapshot struct {
	offset time.Duration
	nodes  []nodeWarmState // in Deployment.Nodes() order
	remote *storage.BufSnapshot
	col    core.CollectorSnapshot
}

// WarmCache memoizes warm-up snapshots across sweep cells sharing a WarmKey.
// It is safe under the experiment layer's parallel cell pool: the mutex
// guards the map, and a per-entry sync.Once makes the first cell to want a
// key compute it while the rest block and reuse it. Snapshots are immutable
// once computed (restore copies), so any number of cells fork concurrently.
type WarmCache struct {
	mu      sync.Mutex
	entries map[WarmKey]*warmEntry

	computed int64 // warm-ups actually run (misses)
	requests int64
}

type warmEntry struct {
	once sync.Once
	snap *WarmSnapshot
}

// NewWarmCache returns an empty warm-up cache.
func NewWarmCache() *WarmCache { return &WarmCache{} }

// get returns the snapshot for key, running compute exactly once per key.
func (c *WarmCache) get(key WarmKey, compute func() *WarmSnapshot) *WarmSnapshot {
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[WarmKey]*warmEntry)
	}
	c.requests++
	e := c.entries[key]
	if e == nil {
		e = &warmEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		snap := compute()
		c.mu.Lock()
		c.computed++
		c.mu.Unlock()
		e.snap = snap
	})
	return e.snap
}

// Stats returns how many snapshot lookups the cache served and how many
// warm-ups it actually ran (requests - computed = cells that skipped one).
func (c *WarmCache) Stats() (requests, computed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.requests, c.computed
}
