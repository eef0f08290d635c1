package node

import (
	"time"

	"cloudybench/internal/netsim"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// LocalDisk is the coupled compute-storage backend (AWS RDS): pages and WAL
// live on a local NVMe volume behind an IOPS-limited channel. Dirty-page
// writebacks and checkpoints compete with foreground reads on that channel,
// which is exactly the contention the paper blames for RDS's degradation
// under heavy writes (§III-B).
type LocalDisk struct {
	IO           *sim.Queue // provisioned-IOPS channel
	ReadLatency  time.Duration
	WriteLatency time.Duration
	LogLatency   time.Duration // sequential WAL append + fsync
}

// NewLocalDisk returns a local NVMe-class backend with the given IOPS.
func NewLocalDisk(s *sim.Sim, iops float64) *LocalDisk {
	return &LocalDisk{
		IO:           sim.NewQueue(s, iops),
		ReadLatency:  100 * time.Microsecond,
		WriteLatency: 100 * time.Microsecond,
		LogLatency:   30 * time.Microsecond,
	}
}

// FetchPage implements StorageBackend: IOPS-channel queueing and device
// read latency folded into a single scheduler block.
func (d *LocalDisk) FetchPage(p *sim.Proc, pg storage.PageID) {
	p.Sleep(d.IO.Reserve(1) + d.ReadLatency)
}

// FlushPage implements StorageBackend.
func (d *LocalDisk) FlushPage(p *sim.Proc, pg storage.PageID) {
	p.Sleep(d.IO.Reserve(1) + d.WriteLatency)
}

// WriteLog implements StorageBackend. WAL appends are sequential and
// group-committed, so they pay fsync latency but do not consume random
// IOPS from the channel.
func (d *LocalDisk) WriteLog(p *sim.Proc, bytes int) {
	p.Sleep(d.LogLatency)
}

// DisaggStore is the storage-disaggregation backend (CDB1/CDB2/CDB3): page
// fetches cross the network to a shared storage service, and commits ship
// redo to the log tier. With RedoPushdown (Aurora-style "the log is the
// database"), dirty pages are never written back by compute — the storage
// tier materializes them from the log.
type DisaggStore struct {
	Link *netsim.Link
	// Store is the storage service's IOPS channel, shared by all compute
	// nodes of the cluster.
	Store *sim.Queue
	// PageServiceTime is the storage-side cost of serving one page.
	PageServiceTime time.Duration
	// LogAckLatency is the extra durability wait at commit beyond the
	// network (quorum acknowledgement across storage replicas).
	LogAckLatency time.Duration
	// RedoPushdown makes FlushPage free.
	RedoPushdown bool
}

// FetchPage implements StorageBackend: request out, storage service work,
// page back — folded into a single virtual-time wait.
func (d *DisaggStore) FetchPage(p *sim.Proc, pg storage.PageID) {
	delay := d.Link.Reserve(128) + d.Store.Reserve(1) + d.PageServiceTime + d.Link.Reserve(storage.PageSize)
	p.Sleep(delay)
}

// FlushPage implements StorageBackend.
func (d *DisaggStore) FlushPage(p *sim.Proc, pg storage.PageID) {
	if d.RedoPushdown {
		return
	}
	d.Link.Send(p, storage.PageSize)
	d.Store.Wait(p, 1)
}

// WriteLog implements StorageBackend: redo ships to the log tier, which is
// separate from the page store, so only the wire and the quorum ack are
// paid.
func (d *DisaggStore) WriteLog(p *sim.Proc, bytes int) {
	d.Link.SendThen(p, bytes, d.LogAckLatency)
}

// RemoteBuffer is the memory-disaggregation backend (CDB4): local buffer
// misses first probe a shared remote buffer pool over RDMA; only remote
// misses fall through to the storage service. Dirty pages are written to
// the remote pool (cheap RDMA) rather than to storage; commits ship redo
// over RDMA.
type RemoteBuffer struct {
	Remote   *storage.BufferPool // shared across the cluster's nodes
	RDMA     *netsim.Link
	Fallback StorageBackend // storage tier beneath the remote pool
}

// FetchPage implements StorageBackend.
func (r *RemoteBuffer) FetchPage(p *sim.Proc, pg storage.PageID) {
	// One-sided RDMA read: small request, page-sized response.
	if r.Remote.Pin(pg) {
		p.Sleep(r.RDMA.Reserve(64) + r.RDMA.Reserve(storage.PageSize))
		return
	}
	p.Sleep(r.RDMA.Reserve(64))
	r.Fallback.FetchPage(p, pg)
	r.Remote.Admit(pg)
	p.Sleep(r.RDMA.Reserve(storage.PageSize))
}

// FlushPage implements StorageBackend: dirty pages land in the remote pool.
func (r *RemoteBuffer) FlushPage(p *sim.Proc, pg storage.PageID) {
	r.RDMA.Send(p, storage.PageSize)
	r.Remote.Admit(pg)
}

// WriteLog implements StorageBackend: redo ships over RDMA to the log
// service, then the fallback's durability applies.
func (r *RemoteBuffer) WriteLog(p *sim.Proc, bytes int) {
	r.RDMA.Send(p, bytes)
	r.Fallback.WriteLog(p, bytes)
}

// NullBackend is a zero-cost backend for pure-logic tests.
type NullBackend struct{}

// FetchPage implements StorageBackend.
func (NullBackend) FetchPage(*sim.Proc, storage.PageID) {}

// FlushPage implements StorageBackend.
func (NullBackend) FlushPage(*sim.Proc, storage.PageID) {}

// WriteLog implements StorageBackend.
func (NullBackend) WriteLog(*sim.Proc, int) {}
