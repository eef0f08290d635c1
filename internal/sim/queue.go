package sim

import "time"

// Queue models a single FIFO service channel with a fixed service rate —
// the canonical model for an IOPS-limited storage volume or a bandwidth-
// limited link. Each Wait(ops) occupies the channel for ops/rate of virtual
// time; concurrent callers queue behind one another, so saturation produces
// honest queueing delay rather than silent over-subscription.
type Queue struct {
	s        *Sim
	perOp    time.Duration // service time of one operation
	nextFree time.Duration // virtual time the channel next becomes idle
}

// NewQueue returns a FIFO service channel with the given rate in
// operations per second. A rate of zero means unlimited (Wait is free).
func NewQueue(s *Sim, opsPerSecond float64) *Queue {
	q := &Queue{s: s}
	q.SetRate(opsPerSecond)
	return q
}

// SetRate changes the service rate. In-flight waits keep their old service
// completion; subsequent waits use the new rate.
func (q *Queue) SetRate(opsPerSecond float64) {
	if opsPerSecond <= 0 {
		q.perOp = 0
		return
	}
	q.perOp = time.Duration(float64(time.Second) / opsPerSecond)
}

// Wait enqueues ops operations and blocks the process until they are
// serviced. It returns the queueing + service delay experienced.
func (q *Queue) Wait(p *Proc, ops int) time.Duration {
	delay := q.Reserve(ops)
	if delay > 0 {
		p.Sleep(delay)
	}
	return delay
}

// Reserve books ops operations on the channel and returns the delay until
// they complete, without sleeping. Callers combine the returned delay with
// other latencies into a single sleep to reduce scheduling overhead; the
// channel accounting is identical to Wait.
func (q *Queue) Reserve(ops int) time.Duration {
	if ops <= 0 {
		return 0
	}
	if q.perOp == 0 {
		return 0
	}
	service := time.Duration(ops) * q.perOp
	if service/q.perOp != time.Duration(ops) { // multiplication overflowed
		service = maxDuration
	}
	now := q.s.now
	start := now
	if q.nextFree > start {
		start = q.nextFree
	}
	done := start + service
	if done < start { // saturate instead of wrapping negative
		done = maxDuration
	}
	q.nextFree = done
	return done - now
}
