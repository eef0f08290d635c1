package core

import (
	"sort"
	"time"

	"cloudybench/internal/meter"
)

// TxnType identifies one of the CloudyBench transactions of paper Table II.
type TxnType int

// Transactions.
const (
	T1NewOrderline TxnType = iota + 1
	T2OrderPayment
	T3OrderStatus
	T4OrderlineDeletion
)

func (t TxnType) String() string {
	switch t {
	case T1NewOrderline:
		return "T1-NewOrderline"
	case T2OrderPayment:
		return "T2-OrderPayment"
	case T3OrderStatus:
		return "T3-OrderStatus"
	case T4OrderlineDeletion:
		return "T4-OrderlineDeletion"
	default:
		return "T?"
	}
}

// Collector is CloudyBench's performance collector: committed-transaction
// counts in per-second buckets (every TPS figure), latency reservoirs, and
// error counts (requests rejected during fail-over outages).
type Collector struct {
	commits   *meter.Counter
	errors    *meter.Counter
	terminals *meter.Counter
	latency   *meter.Reservoir
	byType    [5]int64
	byOp      map[string]int64
}

// NewCollector returns an empty collector with 1-second TPS buckets.
func NewCollector() *Collector {
	return &Collector{
		commits:   meter.NewCounter(time.Second),
		errors:    meter.NewCounter(time.Second),
		terminals: meter.NewCounter(time.Second),
		latency:   meter.NewReservoir(),
	}
}

// RecordCommit records one committed transaction.
func (c *Collector) RecordCommit(typ TxnType, at time.Duration, latency time.Duration) {
	c.commits.Add(at, 1)
	c.latency.Add(latency)
	if typ >= 1 && int(typ) < len(c.byType) {
		c.byType[typ]++
	}
}

// RecordCommitOp records one committed suite operation by name (the suite
// runner's analogue of RecordCommit; suites have op names, not Table II
// transaction types).
func (c *Collector) RecordCommitOp(op string, at time.Duration, latency time.Duration) {
	c.commits.Add(at, 1)
	c.latency.Add(latency)
	if c.byOp == nil {
		c.byOp = make(map[string]int64)
	}
	c.byOp[op]++
}

// CountByOp returns commits of one suite operation.
func (c *Collector) CountByOp(op string) int64 { return c.byOp[op] }

// OpCount is one suite operation's commit total.
type OpCount struct {
	Op string
	N  int64
}

// OpCounts returns per-operation commit totals sorted by op name.
func (c *Collector) OpCounts() []OpCount {
	names := make([]string, 0, len(c.byOp))
	for op := range c.byOp {
		names = append(names, op)
	}
	sort.Strings(names)
	out := make([]OpCount, len(names))
	for i, op := range names {
		out[i] = OpCount{Op: op, N: c.byOp[op]}
	}
	return out
}

// RecordError records one failed request (node down, lock timeout).
func (c *Collector) RecordError(at time.Duration) {
	c.errors.Add(at, 1)
}

// Commits returns the total committed transactions.
func (c *Collector) Commits() int64 { return c.commits.Total() }

// RecordTerminal records one transaction abandoned after exhausting its
// retry budget (the resilient client's give-up signal; each failed attempt
// was already counted as an error).
func (c *Collector) RecordTerminal(at time.Duration) {
	c.terminals.Add(at, 1)
}

// Errors returns the total failed requests.
func (c *Collector) Errors() int64 { return c.errors.Total() }

// Terminals returns the total transactions abandoned after their retry
// budget was exhausted.
func (c *Collector) Terminals() int64 { return c.terminals.Total() }

// CountByType returns commits of one transaction type.
func (c *Collector) CountByType(t TxnType) int64 {
	if t >= 1 && int(t) < len(c.byType) {
		return c.byType[t]
	}
	return 0
}

// TPS returns average committed transactions per second over [from, to).
func (c *Collector) TPS(from, to time.Duration) float64 {
	return c.commits.Rate(from, to)
}

// TPSBuckets returns the per-second TPS series over [from, to).
func (c *Collector) TPSBuckets(from, to time.Duration) []float64 {
	return c.commits.Buckets(from, to)
}

// CollectorSnapshot is a point-in-time capture of a Collector (warm-up
// memoization across sweep cells).
type CollectorSnapshot struct {
	commits   meter.CounterSnapshot
	errors    meter.CounterSnapshot
	terminals meter.CounterSnapshot
	latency   meter.ReservoirSnapshot
	byType    [5]int64
	byOp      map[string]int64
}

// Snapshot captures the collector's current state.
func (c *Collector) Snapshot() CollectorSnapshot {
	s := CollectorSnapshot{
		commits:   c.commits.Snapshot(),
		errors:    c.errors.Snapshot(),
		terminals: c.terminals.Snapshot(),
		latency:   c.latency.Snapshot(),
		byType:    c.byType,
	}
	if c.byOp != nil {
		s.byOp = make(map[string]int64, len(c.byOp))
		for op, n := range c.byOp {
			s.byOp[op] = n
		}
	}
	return s
}

// Restore resets the collector to a snapshot. All state is copied so
// collectors restored from one snapshot accumulate independently.
func (c *Collector) Restore(snap CollectorSnapshot) {
	c.commits.Restore(snap.commits)
	c.errors.Restore(snap.errors)
	c.terminals.Restore(snap.terminals)
	c.latency.Restore(snap.latency)
	c.byType = snap.byType
	c.byOp = nil
	if snap.byOp != nil {
		c.byOp = make(map[string]int64, len(snap.byOp))
		for op, n := range snap.byOp {
			c.byOp[op] = n
		}
	}
}

// Latency returns the latency reservoir.
func (c *Collector) Latency() *meter.Reservoir { return c.latency }
