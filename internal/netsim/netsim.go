// Package netsim models the network fabrics connecting compute, log, page,
// and storage services in a disaggregated cloud database: a link has a
// propagation latency and a shared bandwidth channel. The paper's SUTs use
// 10 Gbps TCP/IP fabrics except CDB4, whose memory-disaggregation tier rides
// a 10 Gbps RDMA fabric with roughly an order of magnitude lower latency
// (paper Table IV and §III-F).
package netsim

import (
	"time"

	"cloudybench/internal/obs"
	"cloudybench/internal/sim"
)

// Fabric identifies the link technology, which determines both the latency
// class and the resource-unit price (paper Table III prices TCP/IP and RDMA
// bandwidth differently).
type Fabric string

// Supported fabrics.
const (
	TCP  Fabric = "tcp"
	RDMA Fabric = "rdma"
	// Local marks an in-box path (RDS's coupled compute and storage):
	// negligible latency, no provisioned network bandwidth billed.
	Local Fabric = "local"
)

// DefaultLatency returns the canonical one-way latency for a fabric inside
// one cloud region: intra-VPC TCP round trips are a few hundred
// microseconds, RDMA an order of magnitude lower, local paths negligible.
func DefaultLatency(f Fabric) time.Duration {
	switch f {
	case RDMA:
		return 10 * time.Microsecond
	case Local:
		return 1 * time.Microsecond
	default:
		return 100 * time.Microsecond
	}
}

// Link is a one-directional network path with propagation latency and a
// shared bandwidth channel. Concurrent transfers queue for bandwidth, so a
// saturated link produces honest transfer delays.
type Link struct {
	latency time.Duration
	gbps    float64
	channel *sim.Queue // one "op" = one byte
	bytes   int64

	// Degradation state (chaos injection): the nominal values are kept so
	// Restore can undo a Degrade exactly.
	baseLatency time.Duration
	baseGbps    float64
	degraded    bool

	// Partition state (chaos injection): while cut, Send blocks the sender
	// until Heal, modelling packets that never arrive. cutCond wakes the
	// blocked senders on heal.
	cut     bool
	cutCond *sim.Cond

	trace *obs.Tracer
}

// NewLink creates a link of the given fabric with the given bandwidth. A
// non-positive gbps means unconstrained bandwidth (latency only).
func NewLink(s *sim.Sim, fabric Fabric, gbps float64) *Link {
	var bytesPerSec float64
	if gbps > 0 {
		bytesPerSec = gbps * 1e9 / 8
	}
	return &Link{
		latency: DefaultLatency(fabric),
		gbps:    gbps,
		channel: sim.NewQueue(s, bytesPerSec),
		cutCond: sim.NewCond(s),
	}
}

// SetTracer attaches (or, with nil, detaches) the observability tracer.
// Every blocking transfer then records a net-hop span on the sending
// process's active trace.
func (l *Link) SetTracer(t *obs.Tracer) { l.trace = t }

// Degrade is the chaos-injection hook for network faults: it adds
// extraLatency to every transfer and scales the provisioned bandwidth by
// bwFactor (0 < bwFactor <= 1; factors above 1 or non-positive are clamped
// to 1, i.e. latency-only degradation). In-flight transfers keep their
// already-reserved completion times; subsequent transfers see the degraded
// link. Calling Degrade on an already-degraded link restacks from the
// nominal values, not cumulatively.
func (l *Link) Degrade(extraLatency time.Duration, bwFactor float64) {
	if !l.degraded {
		l.baseLatency = l.latency
		l.baseGbps = l.gbps
		l.degraded = true
	}
	if bwFactor <= 0 || bwFactor > 1 {
		bwFactor = 1
	}
	l.latency = l.baseLatency + extraLatency
	l.gbps = l.baseGbps * bwFactor
	if l.baseGbps > 0 {
		l.channel.SetRate(l.gbps * 1e9 / 8)
	}
}

// Restore undoes a Degrade, returning the link to its nominal latency and
// bandwidth. It is a no-op on a healthy link.
func (l *Link) Restore() {
	if !l.degraded {
		return
	}
	l.latency = l.baseLatency
	l.gbps = l.baseGbps
	if l.gbps > 0 {
		l.channel.SetRate(l.gbps * 1e9 / 8)
	}
	l.degraded = false
}

// Cut severs the link: subsequent Send calls block until Heal. Transfers
// already past the cut check (mid-flight packets) complete normally, which
// matches a real partition — the wire drops new packets, it does not recall
// delivered ones.
func (l *Link) Cut() { l.cut = true }

// Heal reconnects a cut link and wakes every sender blocked on it; their
// transfers then proceed at the link's current latency and bandwidth. It is
// a no-op on a healthy link.
func (l *Link) Heal() {
	if !l.cut {
		return
	}
	l.cut = false
	l.cutCond.Broadcast()
}

// Send transfers bytes over the link, blocking the process for propagation
// latency plus bandwidth (and any queueing behind concurrent transfers).
// On a cut link the sender blocks until Heal before the transfer starts.
// It returns the total delay experienced, including any partition wait.
func (l *Link) Send(p *sim.Proc, bytes int) time.Duration {
	tr := l.trace
	start := p.Elapsed()
	p.Sleep(l.book(p, bytes))
	if tr != nil {
		tr.Record(p, obs.KindNetHop, start, p.Elapsed())
	}
	return p.Elapsed() - start // transfer delay + any partition wait
}

// SendThen is Send followed by Sleep(then), resuming the process once
// instead of twice (sim.Proc.SleepThen). With a tracer attached it keeps
// the two blocks, so the net-hop span ends where the transfer does.
func (l *Link) SendThen(p *sim.Proc, bytes int, then time.Duration) {
	if l.trace != nil {
		l.Send(p, bytes)
		p.Sleep(then)
		return
	}
	p.SleepThen(l.book(p, bytes), then)
}

// book waits out a cut, then reserves the transfer and returns its delay.
func (l *Link) book(p *sim.Proc, bytes int) time.Duration {
	for l.cut {
		l.cutCond.Wait(p)
	}
	return l.Reserve(bytes)
}

// Reserve books a transfer on the link and returns its total delay
// (bandwidth queueing + propagation) without sleeping, so callers can fold
// several path segments into one scheduler block. Unlike Send it does not
// observe partitions: it models in-box fast paths that no chaos schedule
// cuts (callers on partitionable paths must use Send).
func (l *Link) Reserve(bytes int) time.Duration {
	if bytes < 0 {
		bytes = 0
	}
	l.bytes += int64(bytes)
	return l.channel.Reserve(bytes) + l.latency
}

// BytesSent returns the cumulative payload bytes pushed through the link.
func (l *Link) BytesSent() int64 { return l.bytes }
