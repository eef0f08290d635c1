// Resilient-client machinery: capped exponential backoff with deterministic
// jitter, per-node circuit breakers on virtual time, and reroute-on-open
// for read traffic. NDBench's core argument applies to a testbed client:
// if the benchmark driver dies (or spins) with the SUT, it measures its own
// fragility rather than the database's availability — so the CloudyBench
// client keeps running through partitions and fail-overs, and what it
// records (errors, terminal give-ups, reroutes) becomes the measurement.
package core

import (
	"errors"
	"time"

	"cloudybench/internal/node"
)

// ErrUnreachable is returned when the client cannot reach the picked node
// (network partition between client and node).
var ErrUnreachable = errors.New("core: node unreachable (client-side partition)")

// ErrBreakerOpen is returned without touching the node when its circuit
// breaker is open: the client fails fast instead of hammering a dead node.
var ErrBreakerOpen = errors.New("core: circuit breaker open")

// ErrRetriesExhausted marks a transaction abandoned after its full retry
// budget — the terminal error a bounded client records instead of spinning
// for the rest of the run.
var ErrRetriesExhausted = errors.New("core: retry budget exhausted")

// The per-node circuit breaker's shape, shared by every Runner.
const (
	// breakerThreshold is how many consecutive transient failures open a
	// node's breaker.
	breakerThreshold = 5
	// breakerCooldown is how long an open breaker waits before admitting a
	// single half-open probe.
	breakerCooldown = time.Second
)

// RetryPolicy configures the resilient client. The zero value takes the
// defaults below.
type RetryPolicy struct {
	// BackoffBase is the first retry's backoff; each subsequent retry
	// doubles it up to BackoffCap. Default 100 ms.
	BackoffBase time.Duration
	// BackoffCap bounds the exponential growth. Default 2 s.
	BackoffCap time.Duration
	// MaxAttempts is the per-transaction attempt budget (first try
	// included); once exhausted the transaction is abandoned with a
	// terminal error. Default 8.
	MaxAttempts int
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BackoffBase <= 0 {
		p.BackoffBase = 100 * time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 2 * time.Second
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	return p
}

// backoffFor returns the capped exponential backoff for the given 0-based
// attempt, before jitter.
func (p RetryPolicy) backoffFor(attempt int) time.Duration {
	d := p.BackoffBase
	for i := 0; i < attempt; i++ {
		d *= 2
		if d >= p.BackoffCap {
			return p.BackoffCap
		}
	}
	if d > p.BackoffCap {
		d = p.BackoffCap
	}
	return d
}

// breakerState is the classic three-state circuit breaker.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a per-node circuit breaker running on virtual time. All
// workers of a Runner share one breaker per node, so the whole client
// learns a node is dead from breakerThreshold failures total — not per
// worker. Single-runnable DES discipline makes the unsynchronized state
// safe and deterministic.
type Breaker struct {
	state    breakerState
	fails    int
	openedAt time.Duration
	probing  bool
}

// Allow reports whether a request may proceed now. An open breaker admits
// nothing until the cooldown elapses, then transitions to half-open and
// admits exactly one probe at a time. The returned transition flag is true
// when this call moved the breaker open → half-open (the caller records the
// completed breaker-open window).
func (b *Breaker) Allow(now time.Duration) (ok, openEnded bool) {
	switch b.state {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if now-b.openedAt < breakerCooldown {
			return false, false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, true
	default: // half-open
		if b.probing {
			return false, false
		}
		b.probing = true
		return true, false
	}
}

// OnSuccess records a successful request: the breaker closes and the
// failure streak resets.
func (b *Breaker) OnSuccess() {
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// OnFailure records a transient failure; it reports true when this failure
// opened the breaker (threshold crossed, or a half-open probe failed).
func (b *Breaker) OnFailure(now time.Duration) bool {
	b.probing = false
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.openedAt = now
		return true
	case breakerClosed:
		b.fails++
		if b.fails >= breakerThreshold {
			b.state = breakerOpen
			b.openedAt = now
			return true
		}
	}
	return false
}

// State returns the breaker state name ("closed", "open", "half-open").
func (b *Breaker) State() string { return b.state.String() }

// OpenedAt returns when the breaker last opened (valid while open).
func (b *Breaker) OpenedAt() time.Duration { return b.openedAt }

// breaker returns (creating on first use) the shared breaker for a node.
// The map is keyed by node pointer and used for lookup only — never ranged.
func (r *Runner) breaker(n *node.Node) *Breaker {
	b := r.breakers[n]
	if b == nil {
		b = &Breaker{}
		r.breakers[n] = b
	}
	return b
}

// isTransient reports whether an error is worth retrying: the node may
// recover (restart, heal) or traffic may be rerouted. Everything else is a
// hard failure surfaced immediately.
func isTransient(err error) bool {
	return errors.Is(err, node.ErrNodeDown) ||
		errors.Is(err, node.ErrIOFault) ||
		errors.Is(err, node.ErrFenced) ||
		errors.Is(err, ErrUnreachable) ||
		errors.Is(err, ErrBreakerOpen)
}

// Reroutes returns how many reads the client served from a fallback node
// after its primary read pick was unusable.
func (r *Runner) Reroutes() int64 { return r.reroutes }

// BreakerOpens returns how many times any node breaker opened.
func (r *Runner) BreakerOpens() int64 { return r.breakerOpens }
