package node

import (
	"errors"
	"time"

	"cloudybench/internal/rng"
	"cloudybench/internal/sim"
)

// ErrIOFault is returned by node operations while an injected IO-error
// burst is active. Clients treat it like a transient driver error: record
// the failure, back off, and retry — the same loop they run for ErrNodeDown.
var ErrIOFault = errors.New("node: injected I/O fault")

// faultState holds the node's chaos-injection knobs. All fields are written
// by injector processes and read by request processes; the simulation's
// single-runnable discipline makes that safe without locking, and every
// decision (the error-burst coin flips included) is driven by deterministic
// inputs, so a chaos run replays identically for a given seed.
type faultState struct {
	// stallUntil gates backend page IO: fetches and flushes issued before
	// this virtual time block until it passes (a stalled disk or a
	// storage-service brownout). Buffer hits are unaffected — a stalled
	// device does not slow down cache hits.
	stallUntil time.Duration
	// errRate is the probability that a Begin or replica Read fails with
	// ErrIOFault while the burst is active; errSrc supplies deterministic
	// coin flips.
	errRate float64
	errSrc  *rng.Source

	injected int64 // ErrIOFault count, for chaos reports
}

// InjectIOStall stalls the node's backend page IO until the given virtual
// time (absolute, per sim.Elapsed). Passing a time in the past clears the
// stall.
func (n *Node) InjectIOStall(until time.Duration) {
	n.faults.stallUntil = until
}

// SetIOErrorRate makes the given fraction of Begin/Read requests fail with
// ErrIOFault, using a deterministic source seeded from seed and the node
// name. A rate of zero ends the burst.
func (n *Node) SetIOErrorRate(rate float64, seed int64) {
	if rate <= 0 {
		n.faults.errRate = 0
		n.faults.errSrc = nil
		return
	}
	if rate > 1 {
		rate = 1
	}
	n.faults.errRate = rate
	if n.faults.errSrc == nil {
		n.faults.errSrc = rng.ChildOf(seed, "iofault/"+n.Name)
	}
}

// InjectedFaults returns how many requests ErrIOFault has rejected.
func (n *Node) InjectedFaults() int64 { return n.faults.injected }

// faultGate applies the stall fault in front of one backend IO operation.
// It must be called from the issuing process.
func (n *Node) faultGate(p *sim.Proc) {
	if until := n.faults.stallUntil; until > 0 {
		if now := p.Elapsed(); now < until {
			p.Sleep(until - now)
		}
	}
}

// faultReject reports whether an active IO-error burst rejects this request.
func (n *Node) faultReject() bool {
	if n.faults.errRate <= 0 || n.faults.errSrc == nil {
		return false
	}
	if n.faults.errSrc.Float64() < n.faults.errRate {
		n.faults.injected++
		return true
	}
	return false
}
