// Package node models one database compute node: an engine instance plus
// the resource envelope it executes in — a vCore pool, a buffer pool, and
// an architecture-specific storage backend that prices page misses, dirty
// writebacks, and commit durability.
//
// The same Node type serves every SUT architecture; what differs between
// AWS RDS and the four CDBs is the StorageBackend wiring, whether the CPU
// pool is owned or shared (elastic-pool multi-tenancy), and the autoscaler
// driving SetVCores. Performance differences in the experiments emerge from
// these wirings rather than from per-SUT special cases.
package node

import (
	"errors"
	"fmt"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/meter"
	"cloudybench/internal/obs"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// State is the node lifecycle state.
type State int

// Node states.
const (
	Running State = iota
	// Paused is the scaled-to-zero state (CDB3's pause-and-resume): no
	// resources are allocated; the first arriving request triggers resume.
	Paused
	// Down is a failed or restarting node: requests error immediately.
	Down
	// Recovering accepts no work while the node replays logs after restart.
	Recovering
)

func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Paused:
		return "paused"
	case Down:
		return "down"
	default:
		return "recovering"
	}
}

// ErrNodeDown is returned for requests to a failed node.
var ErrNodeDown = errors.New("node: node is down")

// StorageBackend prices the physical paths of one architecture.
type StorageBackend interface {
	// FetchPage pays the cost of bringing a page into the local buffer
	// after a miss (local disk, disaggregated store, or remote buffer).
	FetchPage(p *sim.Proc, pg storage.PageID)
	// FlushPage pays the cost of writing back a dirty page (ARIES-style
	// engines; log-is-the-database architectures make this free).
	FlushPage(p *sim.Proc, pg storage.PageID)
	// WriteLog pays commit durability for the given WAL bytes.
	WriteLog(p *sim.Proc, bytes int)
}

// MilliPerCore converts vCores to the milli-vCore units of the CPU pool.
const MilliPerCore = 1000

// Config sets a node's resource envelope and service-cost constants.
type Config struct {
	Name        string
	VCores      float64 // initial allocation
	MemoryBytes int64   // buffer memory

	// OpCPU is the CPU service time of one row operation at full-core
	// speed; TxnCPU is the fixed per-transaction overhead (parse, plan,
	// commit bookkeeping).
	OpCPU  time.Duration
	TxnCPU time.Duration

	// SharedCPU, if non-nil, makes the node draw from an external pool
	// (elastic-pool multi-tenancy) instead of owning one.
	SharedCPU *sim.Resource

	// CheckpointInterval, if positive, runs a periodic checkpoint that
	// flushes all dirty pages through the backend and logs a fuzzy
	// checkpoint record bounding crash-recovery redo (ARIES engines). Zero
	// disables checkpointing (redo-pushdown architectures).
	CheckpointInterval time.Duration

	// Recovery prices this architecture's crash-recovery path.
	Recovery RecoveryConfig

	// Trace, if non-nil, records stage-level spans (CPU, lock waits, page
	// IO, WAL appends) on the observability tracer. Nil disables tracing
	// at zero cost on the request hot path.
	Trace *obs.Tracer
}

// Node is one compute node.
type Node struct {
	S       *sim.Sim
	Name    string
	DB      *engine.DB
	Buf     *storage.BufferPool
	Backend StorageBackend

	cpu      *sim.Resource
	ownsCPU  bool
	opCPU    time.Duration
	txnCPU   time.Duration
	memBytes int64

	state     State
	stateCond *sim.Cond
	// OnResumeNeeded is invoked (if set) when a request arrives at a
	// Paused node; the autoscaler is expected to eventually Resume it.
	OnResumeNeeded func()
	// OnCommit is invoked with the committed WAL records (replication).
	OnCommit func(p *sim.Proc, recs []storage.Record)

	// Cores tracks allocated vCores over virtual time for cost accounting
	// and Figure 9's allocation timeline; Mem tracks buffer gigabytes.
	Cores *meter.Series
	Mem   *meter.Series

	// Trace is the observability tracer (nil = tracing off). It is read
	// on every request-path operation, so instrumented methods snapshot it
	// once and branch on nil rather than calling through.
	Trace *obs.Tracer

	checkpointEvery time.Duration
	stopCheckpoint  bool
	// checkpointActive marks the window in which the checkpointer is
	// flushing: foreground page IO issued inside it is attributed to
	// checkpoint-stall rather than page-read/page-write, which is what
	// makes checkpoint interference visible in the stage breakdown.
	checkpointActive bool

	// ioLatch holds the I/O-in-progress latch of every page being fetched;
	// latchFree and txFree are LIFO free-lists (the engine's Txn idiom) of
	// latches whose fetch finished and transaction shells whose Commit or
	// Abort returned, so a page miss and a Begin allocate nothing in steady
	// state.
	ioLatch               map[storage.PageID]*sim.Cond
	latchFree             []*sim.Cond
	txFree                []*Tx
	pageReads, pageWrites int64

	faults faultState

	// fence is the deployment-wide write lease (nil = no fencing); epoch is
	// the lease epoch this node last held. A node whose epoch is stale has
	// its write commits refused by the fence (ErrFenced) — the split-brain
	// guard during partitions.
	fence *storage.Fence
	epoch uint64

	// RebuildSchema recreates the catalog (tables, base rows, secondary
	// indexes) on a fresh engine instance; crash recovery needs it because
	// a rebooted process re-runs deterministic schema setup before log
	// replay. Set by the deployment layer after dataset creation.
	RebuildSchema func(db *engine.DB)

	recovery RecoveryConfig
	// crashEpoch counts crashes; a Tx begun before a crash carries the old
	// value and is refused at commit (its engine txn died with the node).
	crashEpoch uint64
	crashed    bool
	crashSnap  storage.LogSnapshot
	crashTail  []byte

	// scans counts the read-only range scans this node served; scanChecked
	// counts those ScanRead cross-checked and scanDiff keeps the first
	// divergence. They live on the node, not its engine instance, so a crash
	// and recovery keep them.
	scans, scanChecked int64
	scanDiff           string
}

// New creates a node with its own engine database.
func New(s *sim.Sim, cfg Config, backend StorageBackend) *Node {
	n := &Node{
		S:        s,
		Name:     cfg.Name,
		DB:       engine.NewDB(s),
		Buf:      storage.NewBufferPoolBytes(cfg.MemoryBytes),
		Backend:  backend,
		opCPU:    cfg.OpCPU,
		txnCPU:   cfg.TxnCPU,
		memBytes: cfg.MemoryBytes,
		state:    Running,
		Cores:    meter.NewSeries(cfg.VCores),
		Mem:      meter.NewSeries(float64(cfg.MemoryBytes) / (1 << 30)),
		ioLatch:  make(map[storage.PageID]*sim.Cond),
		Trace:    cfg.Trace,
	}
	n.stateCond = sim.NewCond(s)
	if tr := cfg.Trace; tr != nil {
		// Adapt the engine's lock-wait hook onto the tracer: the engine
		// stays ignorant of obs, the tracer sees every blocked acquisition.
		n.DB.Locks().OnWait = func(p *sim.Proc, txn uint64, key string, start, end time.Duration) {
			tr.Record(p, obs.KindLockWait, start, end)
		}
	}
	if cfg.SharedCPU != nil {
		n.cpu = cfg.SharedCPU
	} else {
		n.cpu = sim.NewResource(s, int64(cfg.VCores*MilliPerCore))
		n.ownsCPU = true
	}
	n.recovery = cfg.Recovery
	n.checkpointEvery = cfg.CheckpointInterval
	if n.checkpointEvery > 0 {
		s.Go(n.Name+"/checkpointer", n.checkpointLoop)
	}
	return n
}

// CPU exposes the vCore pool (autoscalers and tests).
func (n *Node) CPU() *sim.Resource { return n.cpu }

// State returns the current lifecycle state.
func (n *Node) State() State { return n.state }

// SetState transitions the node, waking any requests waiting on resume.
func (n *Node) SetState(st State) {
	n.state = st
	n.stateCond.Broadcast()
}

// VCores returns the currently allocated vCores.
func (n *Node) VCores() float64 {
	return float64(n.cpu.Capacity()) / MilliPerCore
}

// SetVCores resizes the node's own CPU pool and records the step for cost
// accounting. It must not be called on nodes drawing from a shared pool.
func (n *Node) SetVCores(at time.Duration, v float64) {
	if !n.ownsCPU {
		panic("node: SetVCores on shared-pool node")
	}
	n.cpu.SetCapacity(int64(v * MilliPerCore))
	n.Cores.Set(at, v)
}

// SetMemoryBytes resizes the buffer pool (serverless memory scaling),
// flushing dirty pages evicted by a shrink through the backend.
func (n *Node) SetMemoryBytes(p *sim.Proc, at time.Duration, bytes int64) {
	n.memBytes = bytes
	dirty := n.Buf.Resize(int(bytes / storage.PageSize))
	for i := 0; i < dirty; i++ {
		n.Backend.FlushPage(p, storage.PageID{})
	}
	n.Mem.Set(at, float64(bytes)/(1<<30))
}

// MemoryBytes returns the configured buffer memory.
func (n *Node) MemoryBytes() int64 { return n.memBytes }

// PageStats returns cumulative page read/write counts.
func (n *Node) PageStats() (reads, writes int64) { return n.pageReads, n.pageWrites }

// AwaitRunning blocks until the node is Running. Paused nodes trigger the
// resume hook; Down/Recovering nodes fail immediately (clients see an
// unavailable service during fail-over, as in the paper's phase-one
// measurement).
func (n *Node) AwaitRunning(p *sim.Proc) error {
	for {
		switch n.state {
		case Running:
			return nil
		case Down, Recovering:
			return ErrNodeDown
		case Paused:
			if n.OnResumeNeeded != nil {
				n.OnResumeNeeded()
			}
			n.stateCond.Wait(p)
		}
	}
}

// ChargeCPU occupies the node's CPU for work of the given full-core service
// time. Allocations below one core stretch service time proportionally
// (half a vCore runs at half speed); multi-core pools serve that many
// operations concurrently.
func (n *Node) ChargeCPU(p *sim.Proc, d time.Duration) {
	if d <= 0 {
		return
	}
	tr := n.Trace
	if tr == nil {
		n.chargeCPU(p, d)
		return
	}
	t0 := p.Elapsed()
	n.chargeCPU(p, d)
	tr.Record(p, obs.KindCPU, t0, p.Elapsed())
}

// chargeCPU is ChargeCPU's uninstrumented body; the span covers both the
// queue wait for vCores and the stretched service time.
func (n *Node) chargeCPU(p *sim.Proc, d time.Duration) {
	for {
		grain := int64(MilliPerCore)
		if c := n.cpu.Capacity(); c < grain {
			if c <= 0 {
				// Zero capacity (mid-scale-down): block until any
				// capacity appears, then re-evaluate the grain.
				n.cpu.Acquire(p, 1)
				n.cpu.Release(1)
				continue
			}
			grain = c
		}
		stretch := time.Duration(float64(d) * float64(MilliPerCore) / float64(grain))
		n.cpu.Use(p, grain, stretch)
		return
	}
}

// ReadPage charges one page access: buffer hit is free; a miss pays the
// backend fetch and may evict a dirty page (paying writeback). Concurrent
// misses on the same page single-flight through an IO-in-progress latch —
// without it, a hot page draws one duplicate fetch per waiting worker and
// the storage channel collapses under load (the classic miss storm).
func (n *Node) ReadPage(p *sim.Proc, pg storage.PageID) {
	n.pageReads++
	n.pagedIn(p, pg, obs.KindPageRead)
}

// WritePage charges a page modification: same as a read plus dirtying.
func (n *Node) WritePage(p *sim.Proc, pg storage.PageID) {
	n.pageWrites++
	n.pageReads++
	n.pagedIn(p, pg, obs.KindPageWrite)
	n.Buf.MarkDirty(pg)
}

// pagedIn brings a page into the buffer (see ReadPage), recording the miss
// path as a span of the given kind. A fetch issued while the checkpointer
// is mid-flush is attributed to checkpoint-stall instead: the IO channel
// time it pays is checkpoint interference, not intrinsic page cost.
func (n *Node) pagedIn(p *sim.Proc, pg storage.PageID, kind obs.Kind) {
	tr := n.Trace
	for {
		if n.Buf.Pin(pg) {
			return
		}
		latch, inFlight := n.ioLatch[pg]
		if inFlight {
			var t0 time.Duration
			if tr != nil {
				t0 = p.Elapsed()
			}
			latch.Wait(p)
			if tr != nil {
				tr.Record(p, obs.KindLatch, t0, p.Elapsed())
			}
			continue // re-check: the fetcher admitted the page
		}
		if k := len(n.latchFree); k > 0 {
			latch = n.latchFree[k-1]
			n.latchFree = n.latchFree[:k-1]
		} else {
			latch = sim.NewCond(n.S)
		}
		n.ioLatch[pg] = latch
		var t0 time.Duration
		if tr != nil {
			t0 = p.Elapsed()
			if n.checkpointActive {
				kind = obs.KindCheckpointStall
			}
		}
		n.faultGate(p)
		n.Backend.FetchPage(p, pg)
		victim, dirty, ok := n.Buf.Admit(pg)
		delete(n.ioLatch, pg)
		latch.Broadcast()
		// Woken waiters re-probe the buffer and never touch the latch
		// again, so it can serve the next miss at once.
		n.latchFree = append(n.latchFree, latch)
		if ok && dirty {
			n.Backend.FlushPage(p, victim)
		}
		if tr != nil {
			tr.Record(p, kind, t0, p.Elapsed())
		}
		return
	}
}

// checkpointLoop periodically flushes all dirty pages (ARIES engines). The
// writeback I/O shares the backend with foreground traffic, so heavy write
// loads suffer — the RDS degradation the paper observes at SF10+/high
// concurrency (§III-B).
func (n *Node) checkpointLoop(p *sim.Proc) {
	for !n.stopCheckpoint {
		p.Sleep(n.checkpointEvery)
		if n.stopCheckpoint {
			return
		}
		if n.state != Running {
			continue
		}
		epoch := n.crashEpoch
		dirtyPages := n.Buf.DirtyPages()
		dirty := n.Buf.FlushAll()
		tr := n.Trace
		var t0 time.Duration
		if tr != nil && dirty > 0 {
			t0 = p.Elapsed()
		}
		n.checkpointActive = true
		for i := 0; i < dirty; i++ {
			n.faultGate(p)
			n.Backend.FlushPage(p, storage.PageID{})
		}
		n.checkpointActive = false
		if tr != nil && dirty > 0 {
			tr.RecordBG("checkpoint", obs.KindCheckpointStall, n.Name, t0, p.Elapsed())
		}
		if n.crashEpoch != epoch || n.state != Running {
			// The node crashed under the checkpointer; the engine instance
			// it captured dirty pages from is gone.
			continue
		}
		// Log the fuzzy checkpoint bounding crash-recovery redo: the record
		// captures the dirty-page table and active-txn table, and its write
		// + sync is priced like any WAL append.
		b0 := n.DB.Log().Bytes()
		n.DB.FuzzyCheckpoint(dirtyPages)
		n.Backend.WriteLog(p, int(n.DB.Log().Bytes()-b0))
		if n.crashEpoch == epoch {
			n.DB.Log().Sync()
		}
	}
}

// StopCheckpointer terminates the background checkpointer so simulations
// can drain.
func (n *Node) StopCheckpointer() { n.stopCheckpoint = true }

// Tx is a transaction executing on this node, charging resources around
// every engine operation. Like the engine.Txn it wraps, a finished Tx returns
// to a free-list: drop the handle once Commit or Abort returns.
type Tx struct {
	n     *Node
	p     *sim.Proc
	inner *engine.Txn
	// epoch is the node's crash epoch at Begin: a crash between any of this
	// transaction's yields discards its engine txn with the node's volatile
	// state, so a stale epoch must fail the transaction instead of touching
	// the rebuilt engine.
	epoch uint64
}

// Begin starts a transaction, blocking through pause/resume and failing on
// a down node.
func (n *Node) Begin(p *sim.Proc) (*Tx, error) {
	if err := n.AwaitRunning(p); err != nil {
		return nil, err
	}
	n.Trace.SetNode(p, n.Name)
	n.ChargeCPU(p, n.txnCPU)
	if n.state != Running {
		// The node crashed while this request waited for vCores.
		return nil, ErrNodeDown
	}
	if n.faultReject() {
		// CPU was already charged, so the rejection consumed virtual
		// time — error loops cannot livelock the simulation.
		return nil, ErrIOFault
	}
	var t *Tx
	if k := len(n.txFree); k > 0 {
		t = n.txFree[k-1]
		n.txFree = n.txFree[:k-1]
	} else {
		t = &Tx{n: n}
	}
	t.p, t.inner, t.epoch = p, n.DB.Begin(p), n.crashEpoch
	return t, nil
}

// finish recycles the transaction shell once its engine txn is done.
func (t *Tx) finish() {
	t.p, t.inner = nil, nil
	t.n.txFree = append(t.n.txFree, t)
}

// Get reads a row with a shared lock, charging CPU and page access.
func (t *Tx) Get(tbl *engine.Table, k engine.Key) (engine.Row, error) {
	return t.GetInto(tbl, k, nil)
}

// GetInto is Get with caller-owned row scratch (see engine.Txn.GetInto).
func (t *Tx) GetInto(tbl *engine.Table, k engine.Key, dst engine.Row) (engine.Row, error) {
	t.n.ChargeCPU(t.p, t.n.opCPU)
	row, page, err := t.inner.GetInto(tbl, k, dst)
	if err != nil && !errors.Is(err, engine.ErrRowNotFound) {
		return nil, err
	}
	t.n.ReadPage(t.p, page)
	return row, err
}

// GetForUpdate reads a row with an exclusive lock (read-modify-write),
// charging CPU and page access.
func (t *Tx) GetForUpdate(tbl *engine.Table, k engine.Key) (engine.Row, error) {
	return t.GetForUpdateInto(tbl, k, nil)
}

// GetForUpdateInto is GetForUpdate with caller-owned row scratch (see
// engine.Txn.GetInto).
func (t *Tx) GetForUpdateInto(tbl *engine.Table, k engine.Key, dst engine.Row) (engine.Row, error) {
	t.n.ChargeCPU(t.p, t.n.opCPU)
	row, page, err := t.inner.GetForUpdateInto(tbl, k, dst)
	if err != nil && !errors.Is(err, engine.ErrRowNotFound) {
		return nil, err
	}
	t.n.ReadPage(t.p, page)
	return row, err
}

// Insert adds a row, charging CPU and the page write (plus one page write
// per touched secondary-index page).
func (t *Tx) Insert(tbl *engine.Table, row engine.Row) error {
	t.n.ChargeCPU(t.p, t.n.opCPU)
	page, err := t.inner.Insert(tbl, row)
	if err != nil {
		return err
	}
	t.n.WritePage(t.p, page)
	t.chargeIndexPages()
	return nil
}

// Update replaces a row, charging CPU and the page write.
func (t *Tx) Update(tbl *engine.Table, k engine.Key, row engine.Row) error {
	t.n.ChargeCPU(t.p, t.n.opCPU)
	page, err := t.inner.Update(tbl, k, row)
	if err != nil {
		return err
	}
	t.n.WritePage(t.p, page)
	t.chargeIndexPages()
	return nil
}

// Delete removes a row, charging CPU and the page write.
func (t *Tx) Delete(tbl *engine.Table, k engine.Key) error {
	t.n.ChargeCPU(t.p, t.n.opCPU)
	page, err := t.inner.Delete(tbl, k)
	if err != nil {
		return err
	}
	t.n.WritePage(t.p, page)
	t.chargeIndexPages()
	return nil
}

// chargeIndexPages pays buffer traffic for the index pages the last write
// maintained — index writes compete for the same buffer pool and storage
// channel as heap writes, which is what makes index overhead visible per
// architecture.
func (t *Tx) chargeIndexPages() {
	for _, pg := range t.inner.LastIndexPages() {
		t.n.WritePage(t.p, pg)
	}
}

// ScanRange runs a range query inside the transaction (see
// engine.Txn.ScanRange) and pays for it as chargeScan does.
func (t *Tx) ScanRange(tbl *engine.Table, col int, lo, hi engine.Value, limit int) ([]engine.Row, error) {
	res, err := t.inner.ScanRange(tbl, col, lo, hi, limit)
	if err != nil {
		return nil, err
	}
	t.n.chargeScan(t.p, res.Pages)
	return res.Rows, nil
}

// chargeScan pays for a range query: one CPU slice scaled by the pages the
// chosen plan touched, then a page read per touched page. Full scans pay
// for every table page — the planner's selectivity cliff is a real
// resource cliff.
func (n *Node) chargeScan(p *sim.Proc, pages []storage.PageID) {
	n.ChargeCPU(p, n.opCPU*time.Duration(1+len(pages)))
	for _, pg := range pages {
		n.ReadPage(p, pg)
	}
}

// ErrFenced mirrors storage.ErrFenced for callers that only import node.
var ErrFenced = storage.ErrFenced

// SetFence attaches the deployment-wide write lease.
func (n *Node) SetFence(f *storage.Fence) { n.fence = f }

// GrantEpoch hands the node a lease epoch (promotion grants the current
// epoch; anything older is fenced at commit).
func (n *Node) GrantEpoch(e uint64) { n.epoch = e }

// Epoch returns the lease epoch the node last held.
func (n *Node) Epoch() uint64 { return n.epoch }

// Commit pays WAL durability through the backend, commits, and hands the
// committed records to the replication hook. Writing transactions present
// the node's lease epoch to the fence first: a stale epoch (the node lost
// the RW lease to a fail-over it may not even know about) aborts the
// transaction with ErrFenced before any durability is paid.
func (t *Tx) Commit() error {
	err := t.commit()
	t.finish()
	return err
}

func (t *Tx) commit() error {
	if t.n.crashEpoch != t.epoch {
		// The node crashed since Begin: this transaction's engine state died
		// with it. The abort only tidies the orphaned pre-crash instance.
		_ = t.inner.Abort()
		return ErrNodeDown
	}
	if t.inner.WALBytes() > 0 && t.n.fence != nil {
		if err := t.n.fence.CheckCommit(t.p.Elapsed(), t.n.Name, t.n.epoch); err != nil {
			// Roll back explicitly: callers treat a commit error as final
			// and never call Abort themselves, so the locks must be
			// released here.
			_ = t.inner.Abort()
			return err
		}
	}
	if bytes := t.inner.WALBytes(); bytes > 0 {
		tr := t.n.Trace
		if tr == nil {
			t.n.Backend.WriteLog(t.p, bytes)
		} else {
			t0 := t.p.Elapsed()
			t.n.Backend.WriteLog(t.p, bytes)
			tr.Record(t.p, obs.KindWALAppend, t0, t.p.Elapsed())
		}
		if t.n.crashEpoch != t.epoch {
			// The node crashed during the durability wait: the commit record
			// never reached the durable log (engine Commit appends and syncs
			// it atomically, and it hadn't run yet), so the client must see
			// failure — an ack here would be a resurrection-in-waiting.
			_ = t.inner.Abort()
			return ErrNodeDown
		}
	}
	recs, err := t.inner.Commit()
	if err != nil {
		return err
	}
	if len(recs) > 0 && t.n.OnCommit != nil {
		t.n.OnCommit(t.p, recs)
	}
	return nil
}

// Abort rolls the transaction back.
func (t *Tx) Abort() error {
	err := t.inner.Abort()
	t.finish()
	return err
}

// scanCheckEvery samples the scan cross-check: the first read-only scan a
// node serves, and every scanCheckEvery-th after it, is re-run under the
// plan the planner did not choose and compared byte for byte
// (engine.Table.CrossCheck). Comparing every scan would cost several times
// the scans' own host time: the full-scan oracle walks and sorts the table.
const scanCheckEvery = 256

// ScanRead serves a lock-free range query on this node (the replica read
// path) through the planner and pays for it as chargeScan does. A sampled
// scan is cross-checked at its instant, in host time: the check charges
// nothing, yields nothing and leaves the table's ScanStats alone, so the run
// paces exactly as without it.
func (n *Node) ScanRead(p *sim.Proc, table string, col int, lo, hi engine.Value, limit int) ([]engine.Row, error) {
	if err := n.AwaitRunning(p); err != nil {
		return nil, err
	}
	tbl := n.DB.Table(table)
	if tbl == nil {
		return nil, errors.New("node: scan of unknown table " + table)
	}
	if n.faultReject() {
		return nil, ErrIOFault
	}
	res, err := tbl.SelectRange(col, lo, hi, limit)
	if err != nil {
		return nil, err
	}
	if n.scans%scanCheckEvery == 0 {
		checked, err := tbl.CrossCheck(res, col, lo, hi, limit)
		if checked {
			n.scanChecked++
		}
		if err != nil && n.scanDiff == "" {
			n.scanDiff = fmt.Sprintf("scan %d: %v", n.scans, err)
		}
	}
	n.scans++
	n.chargeScan(p, res.Pages)
	return res.Rows, nil
}

// ScanChecks reports how many read-only scans this node cross-checked
// against their other plan, one in how many scans it samples, and the first
// divergence found ("" if none).
func (n *Node) ScanChecks() (checked int64, every int, diff string) {
	return n.scanChecked, scanCheckEvery, n.scanDiff
}

// Read serves a lock-free read on this node (the replica read path),
// charging CPU and page access. Missing rows return (nil, false).
func (n *Node) Read(p *sim.Proc, table string, k engine.Key) (engine.Row, bool, error) {
	return n.ReadInto(p, table, k, nil)
}

// ReadInto is Read with caller-owned row scratch: the row is valid only
// until the caller reuses dst (see engine.Table.GetInto), and k is not
// retained.
func (n *Node) ReadInto(p *sim.Proc, table string, k engine.Key, dst engine.Row) (engine.Row, bool, error) {
	if err := n.AwaitRunning(p); err != nil {
		return nil, false, err
	}
	n.ChargeCPU(p, n.opCPU)
	if n.faultReject() {
		return nil, false, ErrIOFault
	}
	row, page, ok := n.DB.ReadInto(table, k, dst)
	n.ReadPage(p, page)
	return row, ok, nil
}
