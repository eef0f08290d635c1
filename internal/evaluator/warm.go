package evaluator

import (
	"sync"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/storage"
)

// Warm-up memoization (DESIGN.md §15). Every RunOLTP executes in two phases,
// each a cell (§18): a warm-up phase that loads the cluster and drains
// replication to a quiescent point, and a measurement phase that deploys a
// fresh cluster, restores the warm-up's snapshot into it, and runs the
// measured window on a virtual clock pre-advanced to the snapshot offset
// (spec.warm). Because the
// measurement phase always starts from a snapshot — whether that snapshot
// was just computed or pulled from a cache — a cache hit is byte-identical
// to a miss, and both to a run with no cache at all.

// WarmKey identifies one warm-up: every OLTPConfig field that influences the
// pre-measurement state. Measure is excluded (it only extends the fork);
// Tracer and Warm are instrumentation, not workload.
type WarmKey struct {
	Kind        cdb.Kind
	SF          int
	Mix         core.Mix
	Concurrency int
	Replicas    int
	Warmup      time.Duration
	BufferBytes int64
	Seed        int64
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

// WarmCache memoizes warm-up snapshots across cells sharing a WarmKey, so
// the benchmark forks its timed rounds from one warm-up. It is safe for
// concurrent cells: the mutex guards the map, and a per-entry sync.Once
// makes the first cell to want a key compute it while the rest block and
// reuse it. Snapshots are immutable once computed (restore copies), so any
// number of cells fork concurrently.
type WarmCache struct {
	mu      sync.Mutex
	entries map[WarmKey]*warmEntry
}

type warmEntry struct {
	once sync.Once
	snap *WarmSnapshot
}

// runWarmup executes the warm-up phase as its own cell: load the cluster for
// cfg.Warmup, drain the clients, quiesce every replication stream, and
// snapshot the resulting state. The snapshot must capture every warm-up
// commit applied on every replica, or forked cells would start with records
// in flight that no stream remembers. cfg must carry its defaults already.
func runWarmup(cfg OLTPConfig) *WarmSnapshot {
	sp := oltpSpec(cfg, cfg.Warmup, nil)
	sp.drainEvery = time.Millisecond
	rc := runCell(sp)
	if !rc.drained {
		panic("evaluator: oltp warm-up did not drain replication")
	}
	snap := &WarmSnapshot{offset: rc.end, col: rc.col.Snapshot()}
	for _, n := range rc.d.Nodes() {
		snap.nodes = append(snap.nodes, nodeWarmState{db: n.DB.Snapshot(), buf: n.Buf.Snapshot()})
	}
	if rc.d.Remote != nil {
		rs := rc.d.Remote.Snapshot()
		snap.remote = &rs
	}
	return snap
}

// restore resumes a forked cell's deployment and collector from snap.
func (rc *run) restore(snap *WarmSnapshot) {
	nodes := rc.d.Nodes()
	if len(nodes) != len(snap.nodes) {
		panic("evaluator: oltp restore: node count mismatch")
	}
	for i, n := range nodes {
		if err := n.DB.Restore(snap.nodes[i].db); err != nil {
			panic("evaluator: oltp restore: " + err.Error())
		}
		n.Buf.Restore(snap.nodes[i].buf)
	}
	if rc.d.Remote != nil && snap.remote != nil {
		rc.d.Remote.Restore(*snap.remote)
	}
	rc.col.Restore(snap.col)
}

// NewWarmCache returns an empty warm-up cache.
func NewWarmCache() *WarmCache { return &WarmCache{entries: map[WarmKey]*warmEntry{}} }

// get returns the snapshot for key, running compute exactly once per key.
func (c *WarmCache) get(key WarmKey, compute func() *WarmSnapshot) *WarmSnapshot {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &warmEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.snap = compute() })
	return e.snap
}
