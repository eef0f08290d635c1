package storage

import (
	"errors"
	"time"
)

// ErrFenced is returned when a commit carries a stale lease epoch: the
// writer was the RW once, but a fail-over has advanced the lease since and
// the shared storage layer refuses the write. This is the mechanism that
// makes a partitioned-but-alive old primary harmless (no split-brain).
var ErrFenced = errors.New("storage: write fenced (stale lease epoch)")

// FenceEventKind classifies fence log entries.
type FenceEventKind uint8

// Fence event kinds.
const (
	// FenceAdvance records a lease epoch bump (a fail-over).
	FenceAdvance FenceEventKind = iota + 1
	// FenceAck records a commit acknowledged under the then-current epoch.
	FenceAck
	// FenceReject records a commit refused because its epoch was stale.
	FenceReject
)

func (k FenceEventKind) String() string {
	switch k {
	case FenceAdvance:
		return "advance"
	case FenceAck:
		return "ack"
	case FenceReject:
		return "reject"
	default:
		return "unknown"
	}
}

// FenceEvent is one entry in the fence audit log: who tried to commit (or
// who advanced the lease), under which epoch, while which epoch was current.
// The check package replays this log to prove NoSplitBrain and
// MonotonicEpoch.
type FenceEvent struct {
	At         time.Duration  // virtual time
	Kind       FenceEventKind // advance | ack | reject
	Node       string         // committing node ("" for advances)
	Epoch      uint64         // epoch the writer presented (new epoch for advances)
	FenceEpoch uint64         // epoch the fence held when the event fired
}

// Fence is the epoch-numbered write lease shared by all nodes of one
// deployment, modelling the arbitration a quorum/shared storage layer
// performs: only commits presenting the current epoch are acknowledged.
// Epochs start at 1 (granted to the initial RW) and advance by exactly one
// per fail-over.
//
// Ack events are recorded only while recording is enabled (partition runs);
// rejects and advances, being rare and load-bearing for the invariants, are
// always logged.
type Fence struct {
	epoch     uint64
	events    []FenceEvent
	recording bool
}

// NewFence returns a fence at epoch 1.
func NewFence() *Fence {
	return &Fence{epoch: 1}
}

// Epoch returns the current lease epoch.
func (f *Fence) Epoch() uint64 { return f.epoch }

// Advance bumps the lease epoch by one (a fail-over taking the lease away
// from the old RW) and returns the new epoch.
func (f *Fence) Advance(at time.Duration) uint64 {
	f.epoch++
	f.events = append(f.events, FenceEvent{
		At: at, Kind: FenceAdvance, Epoch: f.epoch, FenceEpoch: f.epoch,
	})
	return f.epoch
}

// CheckCommit arbitrates one write commit: a commit presenting the current
// epoch is acknowledged; a stale epoch is rejected with ErrFenced.
func (f *Fence) CheckCommit(at time.Duration, nodeName string, epoch uint64) error {
	if epoch == f.epoch {
		if f.recording {
			f.events = append(f.events, FenceEvent{
				At: at, Kind: FenceAck, Node: nodeName, Epoch: epoch, FenceEpoch: f.epoch,
			})
		}
		return nil
	}
	f.events = append(f.events, FenceEvent{
		At: at, Kind: FenceReject, Node: nodeName, Epoch: epoch, FenceEpoch: f.epoch,
	})
	return ErrFenced
}

// SetRecording toggles ack logging. Partition runs enable it so the
// NoSplitBrain checker sees every acknowledged commit; throughput runs leave
// it off to keep memory flat.
func (f *Fence) SetRecording(on bool) { f.recording = on }

// Rejects returns how many commits the fence refused.
func (f *Fence) Rejects() int64 {
	var n int64
	for i := range f.events {
		if f.events[i].Kind == FenceReject {
			n++
		}
	}
	return n
}

// Events returns the audit log. The returned slice aliases internal storage
// and must not be mutated.
func (f *Fence) Events() []FenceEvent { return f.events }
