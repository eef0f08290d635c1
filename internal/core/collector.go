package core

import (
	"slices"
	"strings"
	"time"

	"cloudybench/internal/meter"
)

// Collector is CloudyBench's performance collector: committed-transaction
// counts in per-second buckets (every TPS figure), a commit-latency
// histogram, and error counts (requests rejected during fail-over outages).
type Collector struct {
	commits   *meter.Counter
	errors    *meter.Counter
	terminals *meter.Counter
	latency   meter.Histogram
	// byOp holds commits per op in first-commit order. A workload has a
	// handful of ops, so a scan beats hashing the name on every commit.
	byOp []OpCount
}

// NewCollector returns an empty collector with 1-second TPS buckets.
func NewCollector() *Collector {
	return &Collector{
		commits:   meter.NewCounter(time.Second),
		errors:    meter.NewCounter(time.Second),
		terminals: meter.NewCounter(time.Second),
	}
}

// RecordCommit records one committed transaction under its op name.
func (c *Collector) RecordCommit(op string, at time.Duration, latency time.Duration) {
	c.commits.Add(at, 1)
	c.latency.Add(latency)
	for i := range c.byOp {
		if c.byOp[i].Op == op {
			c.byOp[i].N++
			return
		}
	}
	c.byOp = append(c.byOp, OpCount{Op: op, N: 1})
}

// CountByOp returns commits of one op.
func (c *Collector) CountByOp(op string) int64 {
	for _, oc := range c.byOp {
		if oc.Op == op {
			return oc.N
		}
	}
	return 0
}

// OpCount is one op's commit total.
type OpCount struct {
	Op string
	N  int64
}

// OpCounts returns per-operation commit totals sorted by op name.
func (c *Collector) OpCounts() []OpCount {
	out := slices.Clone(c.byOp)
	slices.SortFunc(out, func(a, b OpCount) int { return strings.Compare(a.Op, b.Op) })
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
	latency   meter.Histogram
	byOp      []OpCount
}

// Snapshot captures the collector's current state.
func (c *Collector) Snapshot() CollectorSnapshot {
	return CollectorSnapshot{
		commits:   c.commits.Snapshot(),
		errors:    c.errors.Snapshot(),
		terminals: c.terminals.Snapshot(),
		latency:   c.latency,
		byOp:      slices.Clone(c.byOp),
	}
}

// Restore resets the collector to a snapshot. All state is copied so
// collectors restored from one snapshot accumulate independently.
func (c *Collector) Restore(snap CollectorSnapshot) {
	c.commits.Restore(snap.commits)
	c.errors.Restore(snap.errors)
	c.terminals.Restore(snap.terminals)
	c.latency = snap.latency
	c.byOp = slices.Clone(snap.byOp)
}

// Latency returns the commit-latency histogram.
func (c *Collector) Latency() *meter.Histogram { return &c.latency }
