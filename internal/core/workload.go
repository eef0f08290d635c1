package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/obs"
	"cloudybench/internal/rng"
	"cloudybench/internal/sim"
)

// Mix is a transaction weighting. The paper's configurations express
// (t1:t2:t3) ratios for throughput experiments and (I,U,D) ratios — mapped
// to (T1, T2, T4) — for lag-time experiments.
type Mix struct {
	T1, T2, T3, T4 float64
}

// ParseMix parses a "t1:t2:t3" ratio string such as "15:5:80".
func ParseMix(s string) (Mix, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return Mix{}, fmt.Errorf("core: mix %q must have three parts t1:t2:t3", s)
	}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return Mix{}, fmt.Errorf("core: bad mix component %q", p)
		}
		vals[i] = v
	}
	m := Mix{T1: vals[0], T2: vals[1], T3: vals[2]}
	if m.T1+m.T2+m.T3 == 0 {
		return Mix{}, fmt.Errorf("core: mix %q is all zero", s)
	}
	return m, nil
}

// Canonical paper mixes (§III-A): (t1:t2:t3) in {(0:0:100), (15:5:80), (100:0:0)}.
var (
	MixReadOnly  = Mix{T3: 100}
	MixReadWrite = Mix{T1: 15, T2: 5, T3: 80}
	MixWriteOnly = Mix{T1: 100}
)

// IUDMix builds the lag-time evaluation mix from insert/update/delete
// percentages (paper §III-F), mapping I->T1, U->T2, D->T4.
func IUDMix(i, u, d float64) Mix { return Mix{T1: i, T2: u, T4: d} }

func (m Mix) weights() []float64 { return []float64{m.T1, m.T2, m.T3, m.T4} }

// IsReadOnly reports whether the mix performs no writes.
func (m Mix) IsReadOnly() bool { return m.T1 == 0 && m.T2 == 0 && m.T4 == 0 }

// String renders the mix as "t1:t2:t3(:t4)".
func (m Mix) String() string {
	if m.T4 == 0 {
		return fmt.Sprintf("%g:%g:%g", m.T1, m.T2, m.T3)
	}
	return fmt.Sprintf("%g:%g:%g:%g", m.T1, m.T2, m.T3, m.T4)
}

// Config parameterizes a workload runner.
type Config struct {
	Name string
	Seed int64
	Mix  Mix
	// Distribution is "uniform" (the default) or "latest", which accesses
	// the 10 freshest keys (paper §II-B).
	Distribution string
	// Write returns the node for read-write transactions (the current RW —
	// a function so fail-over promotion redirects traffic).
	Write func() *node.Node
	// Read returns the node for read-only transactions (round-robin RO).
	Read func() *node.Node
	// ReadCandidates, if set, lists every node reads may fall back to when
	// the primary pick is unusable (down breaker, unreachable) —
	// reroute-on-open. Nil disables rerouting.
	ReadCandidates func() []*node.Node
	// Reachable, if set, answers whether the client currently reaches a
	// node (wired to netsim.Net partitions). Nil means always reachable.
	Reachable func(*node.Node) bool
	// Collector receives commits/errors; required.
	Collector *Collector
	// Retry tunes the resilient client (backoff, attempt budget, breaker);
	// zero fields take defaults (see RetryPolicy).
	Retry RetryPolicy
	// Tracer, if non-nil, opens a trace per transaction and records retry
	// backoffs, breaker-open windows, and reroutes. Nil disables tracing.
	Tracer *obs.Tracer
	// Ops, if non-empty, replaces the Table II mix with a suite's weighted
	// operation set (see Suite); commits are then recorded per op
	// name. Routing, retries, breakers, and rerouting behave exactly as for
	// the mix, with op.ReadOnly playing T3's role.
	Ops []SuiteOp
	// ScanOverride, if set, intercepts OpCtx.ScanRead for every suite op —
	// the differential harness's dual-plan hook. Nil scans normally.
	ScanOverride ScanFunc
}

// Runner drives a workload at a runtime-variable concurrency: the
// elasticity and multi-tenancy evaluators reshape traffic by calling
// SetConcurrency at slot boundaries.
type Runner struct {
	s     *sim.Sim
	cfg   Config
	pol   RetryPolicy
	group *sim.Group

	target  int
	spawned int
	stopped bool
	// activeCond parks workers whose index is at or above target; it is
	// broadcast whenever target changes or the runner stops.
	activeCond *sim.Cond

	// breakers holds the shared per-node circuit breakers (lookup-only map,
	// keyed by node pointer — never ranged).
	breakers     map[*node.Node]*Breaker
	reroutes     int64
	breakerOpens int64

	// opWeights caches the suite ops' weight vector (suite mode only).
	opWeights []float64
}

// NewRunner creates a stopped runner; call SetConcurrency to start traffic.
func NewRunner(s *sim.Sim, cfg Config) *Runner {
	if cfg.Collector == nil {
		panic("core: Runner requires a Collector")
	}
	r := &Runner{
		s:          s,
		cfg:        cfg,
		pol:        cfg.Retry.withDefaults(),
		group:      sim.NewGroup(s),
		activeCond: sim.NewCond(s),
		breakers:   make(map[*node.Node]*Breaker),
	}
	for _, op := range cfg.Ops {
		r.opWeights = append(r.opWeights, op.Weight)
	}
	return r
}

// latestK is how many of the freshest keys the "latest" distribution
// accesses (the paper's latest-10, §II-B).
const latestK = 10

// SetConcurrency reshapes the worker pool to n. Increases wake parked
// workers and spawn fresh ones immediately; decreases take effect as surplus
// workers finish their current transaction and park.
func (r *Runner) SetConcurrency(n int) {
	if n < 0 {
		n = 0
	}
	r.target = n
	r.activeCond.Broadcast()
	for r.spawned < n {
		idx := r.spawned
		r.spawned++
		w := &worker{
			r:    r,
			idx:  idx,
			src:  rng.ChildOf(r.cfg.Seed, fmt.Sprintf("%s/w%d", r.cfg.Name, idx)),
			boff: rng.ChildOf(r.cfg.Seed, fmt.Sprintf("%s/w%d/backoff", r.cfg.Name, idx)),
		}
		w.dist = r.makeDist(w.src)
		w.ctx = OpCtx{Src: w.src, Dist: w.dist, scan: r.cfg.ScanOverride, row: make(engine.Row, 0, rowScratchCols)}
		r.group.Go(fmt.Sprintf("%s/w%d", r.cfg.Name, idx), w.run)
	}
}

func (r *Runner) makeDist(src *rng.Source) rng.Dist {
	switch r.cfg.Distribution {
	case "latest":
		return &rng.Latest{Src: src, K: latestK}
	default:
		return &rng.Uniform{Src: src}
	}
}

// Stop terminates all workers (after their current transaction).
func (r *Runner) Stop() {
	r.stopped = true
	r.target = 0
	r.activeCond.Broadcast()
}

// Wait blocks until every spawned worker has exited.
func (r *Runner) Wait(p *sim.Proc) { r.group.Wait(p) }

type worker struct {
	r    *Runner
	idx  int
	src  *rng.Source
	boff *rng.Source // dedicated jitter stream: retries don't perturb the txn stream
	dist rng.Dist
	// ctx is the context every suite op of this worker runs with, and the
	// owner of the worker's key/row scratch, which T2–T4 use too: a worker is
	// one process running one transaction at a time.
	ctx OpCtx
}

func (w *worker) run(p *sim.Proc) {
	cfg := &w.r.cfg
	weights := cfg.Mix.weights()
	tr := cfg.Tracer
	pol := w.r.pol
	for {
		// A surplus worker parks until concurrency rises past its index
		// again, and then resumes its own random streams.
		for !w.r.stopped && w.idx >= w.r.target {
			w.r.activeCond.Wait(p)
		}
		if w.r.stopped {
			return
		}
		// Suite mode swaps the Table II mix for the suite's weighted op set;
		// everything downstream (routing, retries, breakers) is shared.
		var typ TxnType
		var op *SuiteOp
		label := ""
		if len(cfg.Ops) > 0 {
			op = &cfg.Ops[w.src.PickWeighted(w.r.opWeights)]
			label = op.Name
		} else {
			typ = TxnType(w.src.PickWeighted(weights) + 1)
			label = typ.String()
		}
		start := p.Elapsed()
		if tr != nil {
			tr.StartTxn(p, label, start)
		}
		// Bounded retry loop: transient failures back off (capped
		// exponential + deterministic jitter) and retry until the per-txn
		// attempt budget is spent, then the txn is abandoned as terminal —
		// a worker pinned to a permanently dead node keeps measuring
		// instead of spinning.
		var err error
		for attempt := 0; ; attempt++ {
			err = w.executeOnce(p, typ, op)
			if err == nil || !isTransient(err) {
				break
			}
			cfg.Collector.RecordError(p.Elapsed())
			if attempt+1 >= pol.MaxAttempts {
				err = fmt.Errorf("%w after %d attempts: %w", ErrRetriesExhausted, pol.MaxAttempts, err)
				break
			}
			w.backoff(p, attempt)
			if w.r.stopped {
				break
			}
		}
		switch {
		case err == nil:
			end := p.Elapsed()
			tr.FinishTxn(p, "commit", end)
			if op != nil {
				cfg.Collector.RecordCommitOp(op.Name, end, end-start)
			} else {
				cfg.Collector.RecordCommit(typ, end, end-start)
			}
		case errors.Is(err, ErrRetriesExhausted):
			cfg.Collector.RecordTerminal(p.Elapsed())
			tr.FinishTxn(p, "error", p.Elapsed())
		case isTransient(err):
			// Stopped mid-retry: the error was already recorded above.
			tr.FinishTxn(p, "error", p.Elapsed())
		default:
			cfg.Collector.RecordError(p.Elapsed())
			tr.FinishTxn(p, "error", p.Elapsed())
		}
	}
}

// backoff sleeps the capped exponential backoff for the given attempt with
// deterministic jitter in [1/2, 1) of the nominal value, recorded as a
// fault-retry span when tracing.
func (w *worker) backoff(p *sim.Proc, attempt int) {
	d := w.r.pol.backoffFor(attempt)
	d = d/2 + time.Duration(w.boff.Float64()*float64(d/2))
	tr := w.r.cfg.Tracer
	if tr == nil {
		p.Sleep(d)
		return
	}
	t0 := p.Elapsed()
	p.Sleep(d)
	tr.Record(p, obs.KindFaultRetry, t0, p.Elapsed())
}

// pickNode gates a node through client-side health checks: reachability
// (partition between client and node) and the node's shared circuit
// breaker. A breaker transitioning open → half-open records the completed
// breaker-open window as a background span.
func (w *worker) pickNode(p *sim.Proc, n *node.Node) (*Breaker, error) {
	if f := w.r.cfg.Reachable; f != nil && !f(n) {
		return nil, ErrUnreachable
	}
	b := w.r.breaker(n)
	ok, openEnded := b.Allow(p.Elapsed())
	if openEnded {
		if tr := w.r.cfg.Tracer; tr != nil {
			tr.RecordBG("breaker", obs.KindBreakerOpen, n.Name, b.OpenedAt(), p.Elapsed())
		}
	}
	if !ok {
		return nil, ErrBreakerOpen
	}
	return b, nil
}

// executeOnce runs a single attempt of one transaction or suite op,
// reporting the outcome to the node's breaker. Reads reroute to a healthy
// candidate when the primary pick is unusable; writes cannot reroute (only
// the RW holds the lease) and fail fast instead.
func (w *worker) executeOnce(p *sim.Proc, typ TxnType, op *SuiteOp) error {
	readOnly := typ == T3OrderStatus
	if op != nil {
		readOnly = op.ReadOnly
	}
	n, rerouted, err := w.routeNode(p, readOnly)
	if err != nil {
		return err
	}
	b := w.r.breaker(n)
	t0 := p.Elapsed()
	if op != nil {
		w.ctx.P, w.ctx.Node = p, n
		err = op.Run(&w.ctx)
	} else {
		err = w.execute(p, typ, n)
	}
	if err != nil && isTransient(err) {
		if b.OnFailure(p.Elapsed()) {
			w.r.breakerOpens++
		}
	} else {
		b.OnSuccess()
	}
	if rerouted {
		w.r.reroutes++
		if tr := w.r.cfg.Tracer; tr != nil {
			tr.Record(p, obs.KindReroute, t0, p.Elapsed())
		}
	}
	return err
}

// routeNode picks the node for one attempt. The primary pick comes from
// the configured Write/Read hooks; an unusable read pick falls back to the
// first healthy candidate (reroute-on-open).
func (w *worker) routeNode(p *sim.Proc, readOnly bool) (*node.Node, bool, error) {
	if !readOnly {
		n := w.r.cfg.Write()
		_, err := w.pickNode(p, n)
		return n, false, err
	}
	n := w.r.cfg.Read()
	_, err := w.pickNode(p, n)
	if err == nil {
		return n, false, nil
	}
	if w.r.cfg.ReadCandidates == nil {
		return nil, false, err
	}
	for _, c := range w.r.cfg.ReadCandidates() {
		if c == n {
			continue
		}
		if _, cerr := w.pickNode(p, c); cerr == nil {
			return c, true, nil
		}
	}
	return nil, false, err
}

// execute runs one transaction of the given type on the given node. A nil
// error means the transaction committed.
func (w *worker) execute(p *sim.Proc, typ TxnType, n *node.Node) error {
	switch typ {
	case T1NewOrderline:
		return w.t1NewOrderline(p, n)
	case T2OrderPayment:
		return w.t2OrderPayment(p, n)
	case T3OrderStatus:
		return w.t3OrderStatus(p, n)
	case T4OrderlineDeletion:
		return w.t4OrderlineDeletion(p, n)
	}
	return fmt.Errorf("core: unknown transaction %d", typ)
}

// t1NewOrderline: INSERT INTO orderline VALUES (DEFAULT, ?,?,?,?).
func (w *worker) t1NewOrderline(p *sim.Proc, n *node.Node) error {
	tx, err := n.Begin(p)
	if err != nil {
		return err
	}
	orders := n.DB.Table(TableOrders)
	ol := n.DB.Table(TableOrderline)
	oid := w.dist.Next(orders.MaxID())
	row := engine.Row{
		engine.Int(ol.NextAutoID()),
		engine.Int(oid),
		engine.Str("sku-" + w.src.Letters(6)),
		engine.Int(w.src.IntRange(1, 9)),
		engine.Float(float64(w.src.IntRange(100, 99_99)) / 100),
	}
	if err := tx.Insert(ol, row); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// t2OrderPayment: select the order, mark it paid, credit the customer.
func (w *worker) t2OrderPayment(p *sim.Proc, n *node.Node) error {
	tx, err := n.Begin(p)
	if err != nil {
		return err
	}
	orders := n.DB.Table(TableOrders)
	customers := n.DB.Table(TableCustomer)
	oid := w.dist.Next(orders.MaxID())
	now := engine.Int(p.Now().UnixMicro())

	key := w.ctx.IntKey(oid)
	row, err := tx.GetForUpdateInto(orders, key, w.ctx.row)
	if errors.Is(err, engine.ErrRowNotFound) {
		return tx.Commit() // order vanished: empty but successful payment check
	}
	if err != nil {
		tx.Abort()
		return err
	}
	// row may live in the scratch: take what the customer half needs before the
	// next read reuses the scratch. The clones are what the table keeps.
	cid, amount := row[1].I, row[2].F
	upd := row.Clone()
	upd[4] = engine.Str(StatusPaid)
	upd[5] = now
	if err := tx.Update(orders, key, upd); err != nil {
		tx.Abort()
		return err
	}
	key = w.ctx.IntKey(cid)
	crow, err := tx.GetForUpdateInto(customers, key, w.ctx.row)
	if err != nil {
		tx.Abort()
		return err
	}
	cupd := crow.Clone()
	cupd[2] = engine.Float(crow[2].F + amount)
	cupd[3] = now
	if err := tx.Update(customers, key, cupd); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// t3OrderStatus: SELECT O_ID, O_DATE, O_STATUS FROM orders WHERE O_ID = ?,
// served by a read-only node.
func (w *worker) t3OrderStatus(p *sim.Proc, n *node.Node) error {
	orders := n.DB.Table(TableOrders)
	oid := w.dist.Next(orders.MaxID())
	_, _, err := n.ReadInto(p, TableOrders, w.ctx.IntKey(oid), w.ctx.row)
	return err
}

// t4OrderlineDeletion: DELETE FROM orderline WHERE OL_ID = ?.
func (w *worker) t4OrderlineDeletion(p *sim.Proc, n *node.Node) error {
	tx, err := n.Begin(p)
	if err != nil {
		return err
	}
	ol := n.DB.Table(TableOrderline)
	olid := w.dist.Next(ol.MaxID())
	if err := tx.Delete(ol, w.ctx.IntKey(olid)); err != nil && !errors.Is(err, engine.ErrRowNotFound) {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
