package cdb

import (
	"fmt"
	"time"

	"cloudybench/internal/core"
	"cloudybench/internal/netsim"
	"cloudybench/internal/node"
	"cloudybench/internal/pricing"
	"cloudybench/internal/sim"
)

// Tenant is one tenant's endpoint inside a multi-tenant deployment.
type Tenant struct {
	Index int
	Node  *node.Node
}

// TenantSet deploys a profile for n tenants under its tenancy model
// (paper §III-D):
//
//   - isolated (RDS, CDB1, CDB4): an instance per tenant — high performance
//     under contention, but resources cannot shift between tenants and
//     network/IOPS provisioning multiplies;
//   - pool (CDB2): tenants share an elastic pool of vCores, so idle
//     tenants' capacity flows to busy ones;
//   - branch (CDB3): copy-on-write branches share storage, but each
//     branch's compute is isolated at its provisioned size.
type TenantSet struct {
	Profile Profile
	S       *sim.Sim
	Tenants []*Tenant
	// Pool is the shared vCore pool (pool model only).
	Pool *sim.Resource

	nodes      []*node.Node
	storeQueue *sim.Queue
	dataset    core.Dataset
}

// DeployTenants builds an n-tenant deployment of the profile. Each tenant
// gets its own database (schema-per-tenant, as the paper's SaaS scenario
// allows) at the given scale factor.
func DeployTenants(s *sim.Sim, prof Profile, n int, opts Options) (*TenantSet, error) {
	opts = opts.withDefaults()
	ts := &TenantSet{Profile: prof, S: s, dataset: core.NewDataset(opts.SF, opts.Seed)}
	if !prof.LocalStorage {
		ts.storeQueue = sim.NewQueue(s, prof.DeviceIOPS)
	}
	if prof.Tenancy == TenancyPool {
		// The elastic pool holds n x the single-instance vCores (the paper
		// configures 12 vCores for 3 tenants).
		ts.Pool = sim.NewResource(s, int64(prof.VCores*float64(n)*node.MilliPerCore))
	}
	for i := 0; i < n; i++ {
		nd, err := ts.makeTenantNode(i, opts)
		if err != nil {
			return nil, err
		}
		ts.Tenants = append(ts.Tenants, &Tenant{Index: i, Node: nd})
		ts.nodes = append(ts.nodes, nd)
	}
	if opts.PreWarm {
		for _, nd := range ts.nodes {
			d := &Deployment{Profile: prof, S: s}
			d.warmPool(nd.Buf, nd)
		}
	}
	return ts, nil
}

// MustDeployTenants is DeployTenants that panics on error.
func MustDeployTenants(s *sim.Sim, prof Profile, n int, opts Options) *TenantSet {
	ts, err := DeployTenants(s, prof, n, opts)
	if err != nil {
		panic(err)
	}
	return ts
}

func (ts *TenantSet) makeTenantNode(i int, opts Options) (*node.Node, error) {
	prof := ts.Profile
	var backend node.StorageBackend
	if prof.LocalStorage {
		disk := node.NewLocalDisk(ts.S, prof.DeviceIOPS)
		disk.ReadLatency = prof.StorageLatency
		disk.WriteLatency = prof.StorageLatency
		disk.LogLatency = prof.LogAckLatency
		backend = disk
	} else {
		backend = &node.DisaggStore{
			Link:            netsim.NewLink(ts.S, prof.Fabric, prof.NetGbps),
			Store:           ts.storeQueue,
			PageServiceTime: prof.StorageLatency,
			LogAckLatency:   prof.LogAckLatency,
			RedoPushdown:    prof.RedoPushdown,
		}
	}
	cfg := node.Config{
		Name:        fmt.Sprintf("%s/tenant%d", prof.Kind, i),
		VCores:      prof.VCores,
		MemoryBytes: prof.MemoryBytes,
		OpCPU:       prof.OpCPU,
		TxnCPU:      prof.TxnCPU,
		Recovery:    prof.Recovery,
	}
	if prof.Tenancy == TenancyPool {
		cfg.SharedCPU = ts.Pool
	}
	nd := node.New(ts.S, cfg, backend)
	if err := ts.dataset.CreateTables(nd.DB); err != nil {
		return nil, err
	}
	return nd, nil
}

// Shutdown stops background processes.
func (ts *TenantSet) Shutdown() {
	for _, n := range ts.nodes {
		n.StopCheckpointer()
	}
}

// Package returns the total provisioned resources for the tenant set,
// matching paper Table VII's "Total Resources" column for three tenants:
//
//   - isolated: everything multiplies by tenant count (separate instances
//     triple network and IOPS) — except CDB4's IOPS, which belong to its
//     shared storage service;
//   - pool: vCores/memory/storage/IOPS scale with tenants inside one pool,
//     network is provisioned once;
//   - branch: compute and IOPS per branch, storage shared, network once.
func (ts *TenantSet) Package() pricing.Package {
	prof := ts.Profile
	n := float64(len(ts.Tenants))
	p := prof.PackageNode
	switch prof.Tenancy {
	case TenancyPool:
		// CDB2: 12 vCores, 36 GB, 189 GB, 54000 IOPS, one 10 Gbps fabric.
		return pricing.Package{
			VCores:    p.VCores * n,
			MemoryGB:  12 * n, // pool grants each tenant 12 GB on average
			StorageGB: p.StorageGB * n,
			IOPS:      18_000 * n,
			NetGbps:   p.NetGbps,
			Fabric:    p.Fabric,
		}
	case TenancyBranch:
		// CDB3: compute per branch, storage shared by copy-on-write.
		return pricing.Package{
			VCores:    p.VCores * n,
			MemoryGB:  p.MemoryGB * n,
			StorageGB: p.StorageGB,
			IOPS:      p.IOPS * n,
			NetGbps:   p.NetGbps,
			Fabric:    p.Fabric,
		}
	default:
		out := p.Scale(n)
		if prof.Kind == CDB4 {
			out.IOPS = p.IOPS // shared storage service
		}
		out.Fabric = p.Fabric
		return out
	}
}

// CostPerMinute returns the RUC cost per minute of the provisioned tenant
// set (the Cost column of Table VII).
func (ts *TenantSet) CostPerMinute() float64 {
	return pricing.PerMinuteBreakdown(ts.Package()).Total()
}

// ActualCost returns the vendor-priced cost for d with minimum billing.
func (ts *TenantSet) ActualCost(d time.Duration) float64 {
	return ts.Profile.Actual.Cost(ts.Package(), d)
}
