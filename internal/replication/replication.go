// Package replication implements the log-shipping pipelines that keep
// read-only replicas (and page services) synchronized with the read-write
// node. Architectures differ in three calibratable dimensions the paper
// calls out in §III-F:
//
//   - path: how many hops a record crosses (CDB2's separate log and page
//     services add a hop and have the highest lag; CDB4's RDMA ships
//     directly into the remote buffer with the lowest);
//   - batching: how long the shipper accumulates commits before sending;
//   - replay: sequential (CDB1, CDB2) versus parallel lanes partitioned by
//     page (CDB3's parallel log replay).
//
// Lag is measured per DML type (insert/update/delete) because the paper's
// C-Score averages the three.
package replication

import (
	"cmp"
	"slices"
	"time"

	"cloudybench/internal/meter"
	"cloudybench/internal/netsim"
	"cloudybench/internal/node"
	"cloudybench/internal/obs"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// deleteFactor scales replay cost for deletes (most CDBs tombstone
// logically, making deletes cheaper — §III-F's "less lag time with higher
// delete ratio").
const deleteFactor = 0.5

// Config describes one replication stream's architecture.
type Config struct {
	Name string
	// BatchInterval is how long the shipper accumulates committed records
	// before shipping a batch. Zero ships immediately.
	BatchInterval time.Duration
	// Link carries shipped batches (nil = free local hand-off).
	Link *netsim.Link
	// ExtraHops adds fixed per-batch latencies for intermediate services
	// (log service -> page service).
	ExtraHops []time.Duration
	// Lanes is the number of parallel replay lanes; 1 replays sequentially.
	// Records are partitioned by page so per-key order is preserved.
	Lanes int
	// PerRecord is the replay service time of one record in a lane.
	PerRecord time.Duration
	// Tracer, if non-nil, records replication-ship spans per shipped batch
	// and storage-replay spans per replayed record as background activity.
	Tracer *obs.Tracer
}

// envelope is one record in flight: a reference to the record's slot in the
// primary's WAL, and the instant it committed. The stream never copies a
// record and never writes through the reference (see Publish).
type envelope struct {
	rec         *storage.Record
	committedAt time.Duration
}

// envChunkLen is the number of envelopes a queue grows by.
const envChunkLen = 128

// envChunk is one fixed-size link of an envQueue; the envelopes at [lo, hi)
// are live. Record references and commit instants sit in separate arrays so
// that replay can hand the engine a chunk's references as one
// []*storage.Record in place.
type envChunk struct {
	next        *envChunk
	lo, hi      int
	recs        [envChunkLen]*storage.Record
	committedAt [envChunkLen]time.Duration
}

// envQueue is a FIFO of envelopes held as a list of chunks: it grows by
// linking a chunk, never by reallocating, and changes hands (inbox →
// in-flight batch, lane queue → replay batch) by value, as one struct copy.
// The chunks belong to the Stream whose push linked them and go back to its
// free list through release or pop, so a stream's queues cost the high-water
// mark of its backlog once. A queue that was copied must be used through one
// copy only.
type envQueue struct {
	head, tail *envChunk
	n          int
	// bytes and cost are what the queued records cost to ship (shippedSize)
	// and to replay (recordCost), summed at push, so that the shipper and a
	// lane price a whole batch without reading its records again.
	bytes int
	cost  time.Duration
}

// Stream replicates one RW node's committed records into one replica.
type Stream struct {
	s       *sim.Sim
	cfg     Config
	replica *node.Node

	// OnApply, if set, runs after each data record applies (cache
	// invalidation in the memory-disaggregated architecture). rec is a copy
	// of the primary's log record, prior image included.
	OnApply func(rec storage.Record)

	inbox     envQueue
	inboxCond *sim.Cond
	lanes     []*laneState
	stopped   bool
	// free is the LIFO of drained queue chunks every queue of this stream
	// draws from.
	free *envChunk

	// inflight is the batch the shipper popped from the inbox and is
	// currently transferring; on a cut link the shipper blocks mid-Send with
	// the batch parked here so DrainPending can recover it (the records are
	// committed and durable — only the network path is gone).
	inflight envQueue
	// replaying counts lane records popped but not yet applied, so
	// DrainPending can wait out in-flight replays before taking over.
	replaying int

	appliedLSN storage.LSN
	shipped    int64
	applied    int64

	// serialApply forces the pre-batching record-at-a-time replay path.
	// Test-only: the replay-batch equivalence test proves both paths yield
	// identical applied LSNs and lag histograms on a quiet stream.
	serialApply bool

	lagInsert meter.Histogram
	lagUpdate meter.Histogram
	lagDelete meter.Histogram
}

type laneState struct {
	queue envQueue
	cond  *sim.Cond
}

// NewStream starts a replication stream feeding the given replica node.
func NewStream(s *sim.Sim, cfg Config, replica *node.Node) *Stream {
	if cfg.Lanes < 1 {
		cfg.Lanes = 1
	}
	st := &Stream{
		s:         s,
		cfg:       cfg,
		replica:   replica,
		inboxCond: sim.NewCond(s),
	}
	for i := 0; i < cfg.Lanes; i++ {
		lane := &laneState{cond: sim.NewCond(s)}
		st.lanes = append(st.lanes, lane)
		laneID := i
		s.Go(cfg.Name+"/replay", func(p *sim.Proc) { st.replayLoop(p, laneID) })
	}
	s.Go(cfg.Name+"/shipper", st.shipLoop)
	return st
}

// Publish hands committed records to the stream by reference: the stream
// keeps &recs[i], not a copy, until that record is applied, so the caller
// must leave recs unchanged until then. The stream only reads them.
func (st *Stream) Publish(p *sim.Proc, recs []storage.Record) {
	if st.stopped {
		return
	}
	now := st.s.Elapsed()
	for i := range recs {
		st.push(&st.inbox, &recs[i], now)
	}
	st.inboxCond.Signal()
}

// PublishFrom is Publish for a commit hook: recs are the records a commit
// returned (the committing txn's own buffer, valid only until the DB's next
// Begin), and the stream keeps, for each, a reference to the slot log holds
// for its LSN. That slot stays as it is for as long as the stream needs it:
// under the Chunk ownership rule on storage.Log a slot holding a record is
// never written again, and a committed record is synced, so no crash cuts
// it.
func (st *Stream) PublishFrom(p *sim.Proc, log *storage.Log, recs []storage.Record) {
	if st.stopped {
		return
	}
	now := st.s.Elapsed()
	for i := range recs {
		st.push(&st.inbox, log.Slot(recs[i].LSN), now)
	}
	st.inboxCond.Signal()
}

// shippedSize is what rec costs on the wire. Replicas replay after-images
// only, so the shipped record carries no prior image.
func shippedSize(rec *storage.Record) int { return rec.Size() - len(rec.Prior) }

// push adds one envelope at the back of q, linking a chunk from the free
// list when the last one is full.
//
//detlint:hotpath
func (st *Stream) push(q *envQueue, rec *storage.Record, committedAt time.Duration) {
	c := q.tail
	if c == nil || c.hi == envChunkLen {
		c = st.free
		if c != nil {
			st.free = c.next
			c.next, c.lo, c.hi = nil, 0, 0
		} else {
			c = newEnvChunk()
		}
		if q.tail == nil {
			q.head = c
		} else {
			q.tail.next = c
		}
		q.tail = c
	}
	c.recs[c.hi] = rec
	c.committedAt[c.hi] = committedAt
	c.hi++
	q.n++
	q.bytes += shippedSize(rec)
	q.cost += st.recordCost(rec.Type)
}

// newEnvChunk is the free-list miss: the backlog is deeper than this stream
// has seen before. Kept out of line so the allocation stays out of push.
//
//detlint:coldpath
//go:noinline
func newEnvChunk() *envChunk { return new(envChunk) }

// take empties q and returns what it held.
//
//detlint:hotpath
func (q *envQueue) take() envQueue {
	b := *q
	*q = envQueue{}
	return b
}

// pop removes and returns the front envelope of a non-empty q.
func (st *Stream) pop(q *envQueue) envelope {
	c := q.head
	env := envelope{rec: c.recs[c.lo], committedAt: c.committedAt[c.lo]}
	c.lo++
	q.n--
	q.bytes -= shippedSize(env.rec)
	q.cost -= st.recordCost(env.rec.Type)
	if c.lo == c.hi {
		q.head = c.next
		if q.head == nil {
			q.tail = nil
		}
		st.recycle(c)
	}
	return env
}

// release splices every chunk of a taken queue onto the free list. The
// stale references stay in place until push overwrites them: what they point
// at is WAL memory the primary's log holds anyway.
//
//detlint:hotpath
func (st *Stream) release(q envQueue) {
	if q.head != nil {
		q.tail.next = st.free
		st.free = q.head
	}
}

// recycle puts one drained chunk on the free list.
func (st *Stream) recycle(c *envChunk) {
	c.next = st.free
	st.free = c
}

// Stop shuts the stream down after draining; background processes exit.
func (st *Stream) Stop() {
	st.stopped = true
	st.inboxCond.Broadcast()
	for _, l := range st.lanes {
		l.cond.Broadcast()
	}
}

func (st *Stream) shipLoop(p *sim.Proc) {
	for {
		for st.inbox.n == 0 {
			if st.stopped {
				return
			}
			st.inboxCond.Wait(p)
		}
		if st.cfg.BatchInterval > 0 {
			p.Sleep(st.cfg.BatchInterval)
		}
		st.inflight = st.inbox.take()
		bytes := st.inflight.bytes
		tr := st.cfg.Tracer
		var t0 time.Duration
		if tr != nil {
			t0 = p.Elapsed()
		}
		if st.cfg.Link != nil {
			st.cfg.Link.Send(p, bytes)
		}
		for _, hop := range st.cfg.ExtraHops {
			p.Sleep(hop)
		}
		if tr != nil {
			tr.RecordBG("replication", obs.KindReplicationShip, st.cfg.Name, t0, p.Elapsed())
		}
		// DrainPending may have taken the batch while Send was blocked on a
		// cut link; if so there is nothing left to distribute.
		batch := st.inflight.take()
		st.shipped += int64(batch.n)
		// Each drained chunk is recycled before the next is distributed, so
		// the lanes' pushes can take it straight back.
		for c := batch.head; c != nil; {
			for i := c.lo; i < c.hi; i++ {
				rec := c.recs[i]
				lane := st.lanes[int(rec.Page.Num)%len(st.lanes)]
				st.push(&lane.queue, rec, c.committedAt[i])
				lane.cond.Signal()
			}
			next := c.next
			st.recycle(c)
			c = next
		}
	}
}

func (st *Stream) replayLoop(p *sim.Proc, laneID int) {
	lane := st.lanes[laneID]
	for {
		for lane.queue.n == 0 {
			if st.stopped {
				return
			}
			lane.cond.Wait(p)
		}
		if st.serialApply {
			env := st.pop(&lane.queue)
			st.replaying++
			st.applyOne(p, &env)
			st.replaying--
			continue
		}
		batch := lane.queue.take()
		st.replaying += batch.n
		st.replayBatch(p, batch)
		st.replaying -= batch.n
		st.release(batch)
	}
}

// recordCost returns the replay service time of one record.
func (st *Stream) recordCost(typ storage.RecType) time.Duration {
	switch typ {
	case storage.RecDelete:
		return time.Duration(float64(st.cfg.PerRecord) * deleteFactor)
	case storage.RecInsert, storage.RecUpdate:
		return st.cfg.PerRecord
	default:
		return 0 // commit/begin markers replay for free
	}
}

// replayBatch replays a whole lane batch: one Down check, one coalesced
// sleep for the summed per-record service times, then every record applied
// through the engine's batched path, one queue chunk at a time, in place (the
// batch boundary, and with it everything virtual time can see, is the whole
// queue; a chunk is only how many records sit side by side). Each record's
// nominal apply instant is the batch start plus its prefix cost — exactly
// where the record-at-a-time loop would have applied it — so lag samples and
// tracer spans are byte-identical to serial replay on a quiet stream (the one
// observable divergence: a replica going Down mid-batch pauses serial replay
// between records, while a batch in flight completes first). The post-sleep
// section never yields, so no other process can observe the intermediate
// ordering of applies and OnApply hooks.
//
//detlint:hotpath
func (st *Stream) replayBatch(p *sim.Proc, batch envQueue) {
	// A down or recovering replica buffers the backlog; replay resumes
	// (and catches up) once the node is serving again, extending recovery
	// realistically.
	for st.replica.State() == node.Down || st.replica.State() == node.Recovering {
		p.Sleep(100 * time.Millisecond)
	}
	start := p.Elapsed()
	if batch.cost > 0 {
		p.Sleep(batch.cost)
	}
	tr := st.cfg.Tracer
	at := start
	for c := batch.head; c != nil; c = c.next {
		recs := c.recs[c.lo:c.hi]
		for i, rec := range recs {
			cost := st.recordCost(rec.Type)
			at += cost
			if cost > 0 && tr != nil {
				tr.RecordBG("replication", obs.KindStorageReplay, st.cfg.Name, at-cost, at)
			}
			st.applied++
			if rec.LSN > st.appliedLSN {
				st.appliedLSN = rec.LSN
			}
			st.sampleLag(rec.Type, at-c.committedAt[c.lo+i])
		}
		if err := st.replica.DB.ApplyRefs(recs); err != nil {
			panic("replication: " + err.Error())
		}
		if st.OnApply != nil {
			for _, rec := range recs {
				if rec.Type != storage.RecCommit {
					st.OnApply(*rec)
				}
			}
		}
	}
}

// sampleLag records one record's replication lag under its DML type.
func (st *Stream) sampleLag(typ storage.RecType, lag time.Duration) {
	switch typ {
	case storage.RecInsert:
		st.lagInsert.Add(lag)
	case storage.RecUpdate:
		st.lagUpdate.Add(lag)
	case storage.RecDelete:
		st.lagDelete.Add(lag)
	}
}

// applyOne pays the replay cost for one record and applies it to the
// replica. Shared by the serial replay path and DrainPending.
func (st *Stream) applyOne(p *sim.Proc, env *envelope) {
	for st.replica.State() == node.Down || st.replica.State() == node.Recovering {
		p.Sleep(100 * time.Millisecond)
	}
	cost := st.recordCost(env.rec.Type)
	if cost > 0 {
		tr := st.cfg.Tracer
		if tr == nil {
			p.Sleep(cost)
		} else {
			t0 := p.Elapsed()
			p.Sleep(cost)
			tr.RecordBG("replication", obs.KindStorageReplay, st.cfg.Name, t0, p.Elapsed())
		}
	}
	if err := st.replica.DB.Apply(*env.rec); err != nil {
		panic("replication: " + err.Error())
	}
	st.applied++
	if env.rec.LSN > st.appliedLSN {
		st.appliedLSN = env.rec.LSN
	}
	st.sampleLag(env.rec.Type, st.s.Elapsed()-env.committedAt)
	if st.OnApply != nil && env.rec.Type != storage.RecCommit {
		st.OnApply(*env.rec)
	}
}

// DrainPending synchronously applies every record the stream has accepted
// but not yet applied — the shipper's in-flight batch (possibly parked
// behind a cut link), the inbox, and the lane queues — to the replica, in
// LSN order. Fail-over promotion calls this before adopting the replica as
// the new RW: in the modelled architectures the committed log lives in
// shared/quorum storage, which the promoted node can still read while the
// network path to the old RW is partitioned, so no acknowledged commit is
// lost to the cut. Replay cost is paid per record, extending the promotion
// realistically under backlog. The replica must not be Down. Returns how
// many records were applied.
func (st *Stream) DrainPending(p *sim.Proc) int {
	for st.replaying > 0 {
		p.Sleep(time.Millisecond)
	}
	pend := make([]envelope, 0, st.Backlog())
	newlyShipped := int64(st.inflight.n + st.inbox.n)
	pend = st.drain(pend, &st.inflight)
	pend = st.drain(pend, &st.inbox)
	for _, l := range st.lanes {
		pend = st.drain(pend, &l.queue)
	}
	slices.SortFunc(pend, func(a, b envelope) int { return cmp.Compare(a.rec.LSN, b.rec.LSN) })
	for i := range pend {
		st.applyOne(p, &pend[i])
	}
	st.shipped += newlyShipped
	return len(pend)
}

// drain moves every envelope of q onto dst (sized by the caller) and
// recycles q's chunks.
func (st *Stream) drain(dst []envelope, q *envQueue) []envelope {
	b := q.take()
	for c := b.head; c != nil; c = c.next {
		for i := c.lo; i < c.hi; i++ {
			dst = append(dst, envelope{rec: c.recs[i], committedAt: c.committedAt[i]})
		}
	}
	st.release(b)
	return dst
}

// Counts returns shipped and applied record counts.
func (st *Stream) Counts() (shipped, applied int64) { return st.shipped, st.applied }

// Backlog returns records accepted but not yet applied: waiting to ship,
// mid-transfer in the shipper's in-flight batch, or queued in a replay
// lane. The in-flight batch must count — it is invisible to Counts() until
// the transfer lands, so a quiesce loop testing Backlog()==0 &&
// shipped==applied would otherwise declare convergence while a batch is
// still crossing the (possibly multi-hop) ship path.
func (st *Stream) Backlog() int {
	n := st.inbox.n + st.inflight.n
	for _, l := range st.lanes {
		n += l.queue.n
	}
	return n
}

// MeanLag returns the mean replication lag for the given record type, or
// the overall mean across DML types when typ is zero.
func (st *Stream) MeanLag(typ storage.RecType) time.Duration {
	switch typ {
	case storage.RecInsert:
		return st.lagInsert.Mean()
	case storage.RecUpdate:
		return st.lagUpdate.Mean()
	case storage.RecDelete:
		return st.lagDelete.Mean()
	}
	total := time.Duration(0)
	n := 0
	for _, h := range []*meter.Histogram{&st.lagInsert, &st.lagUpdate, &st.lagDelete} {
		if h.Count() > 0 {
			total += h.Mean()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}
