// Package pricing implements CloudyBench's resource unit cost (RUC) model
// (paper §II-F, Table III) and the per-vendor actual-cost models used for
// the starred score variants of §III-G.
//
// The RUC idea: cloud vendors package resources differently (Aurora ACUs,
// PolarDB instances, elastic pools) and price them differently, so a fair
// horizontal comparison normalizes everything to standard unit prices —
// dollars per vCore-hour, GB-hour, 100-IOPS-hour, and Gbps-hour. Costs are
// then pure functions of the resource package and the duration it was held.
package pricing

import (
	"time"

	"cloudybench/internal/netsim"
)

// Resource unit costs per hour from paper Table III.
const (
	CPUPerVCoreHour  = 0.1847   // $/vCore/h   (avg of Aurora/PolarDB/HyperScale/Neon)
	MemPerGBHour     = 0.0095   // $/GB/h
	StoragePerGBHour = 0.000853 // $/GB/h
	IOPSPer100Hour   = 0.00015  // $/100 IOPS/h (AWS RDS IOPS pricing)
	TCPPerGbpsHour   = 0.07696  // $/Gbps/h    (Huawei S1730S 10G reference)
	RDMAPerGbpsHour  = 0.23088  // $/Gbps/h    (Mellanox MSB7890 100G reference)
	HoursPerMinute   = 1.0 / 60
)

// Package describes a provisioned resource bundle. Fractional vCores are
// allowed (CDB3's minimum capacity unit is 0.25 CU = 0.25 vCore).
type Package struct {
	VCores    float64
	MemoryGB  float64
	StorageGB float64
	IOPS      float64
	NetGbps   float64
	Fabric    netsim.Fabric
}

// Scale returns the package with every component multiplied by f.
func (p Package) Scale(f float64) Package {
	p.VCores *= f
	p.MemoryGB *= f
	p.StorageGB *= f
	p.IOPS *= f
	p.NetGbps *= f
	return p
}

// ClusterPackage expands a per-node package to a cluster with the given
// number of compute nodes. Per-node resources (vCores, memory, storage) are
// multiplied by the node count; IOPS and network are provisioned once for
// the cluster. This is exactly how paper Table V totals its "Resource"
// column for the 1 RW + 1 RO deployments: the per-resource columns list
// per-node values, and the total doubles CPU, memory, and storage only.
func ClusterPackage(node Package, computeNodes int) Package {
	if computeNodes < 1 {
		computeNodes = 1
	}
	n := float64(computeNodes)
	return Package{
		VCores:    node.VCores * n,
		MemoryGB:  node.MemoryGB * n,
		StorageGB: node.StorageGB * n,
		IOPS:      node.IOPS,
		NetGbps:   node.NetGbps,
		Fabric:    node.Fabric,
	}
}

// Breakdown is an itemized cost, in dollars, over some duration. Table V
// reports exactly these five components per minute.
type Breakdown struct {
	CPU     float64
	Memory  float64
	Storage float64
	IOPS    float64
	Network float64
}

// Total returns the sum of all components.
func (b Breakdown) Total() float64 {
	return b.CPU + b.Memory + b.Storage + b.IOPS + b.Network
}

func netRate(f netsim.Fabric) float64 {
	switch f {
	case netsim.RDMA:
		return RDMAPerGbpsHour
	case netsim.Local:
		return 0
	default:
		return TCPPerGbpsHour
	}
}

// HourlyBreakdown itemizes the RUC cost of holding the package for one hour.
func HourlyBreakdown(p Package) Breakdown {
	return Breakdown{
		CPU:     p.VCores * CPUPerVCoreHour,
		Memory:  p.MemoryGB * MemPerGBHour,
		Storage: p.StorageGB * StoragePerGBHour,
		IOPS:    p.IOPS / 100 * IOPSPer100Hour,
		Network: p.NetGbps * netRate(p.Fabric),
	}
}

// PerMinuteBreakdown itemizes the RUC cost per minute, the unit Table V and
// Table VII report.
func PerMinuteBreakdown(p Package) Breakdown {
	h := HourlyBreakdown(p)
	return Breakdown{
		CPU:     h.CPU * HoursPerMinute,
		Memory:  h.Memory * HoursPerMinute,
		Storage: h.Storage * HoursPerMinute,
		IOPS:    h.IOPS * HoursPerMinute,
		Network: h.Network * HoursPerMinute,
	}
}

// CostBreakdown itemizes the RUC cost of holding the package for d.
func CostBreakdown(p Package, d time.Duration) Breakdown {
	h := HourlyBreakdown(p)
	f := d.Hours()
	return Breakdown{
		CPU:     h.CPU * f,
		Memory:  h.Memory * f,
		Storage: h.Storage * f,
		IOPS:    h.IOPS * f,
		Network: h.Network * f,
	}
}

// Actual models a vendor's real pricing, which differs from RUC in unit
// rates and in billing granularity (paper §III-G: "AWS RDS has the lowest
// P-Score* because its pricing model charges for at least 10 minutes", the
// CDB2 elastic pool "is charged at least one hour", and CDB3's startup
// pricing is ~3x cheaper per vCore than CDB2's).
type Actual struct {
	PerVCoreHour     float64
	PerGBMemHour     float64
	PerGBStorageHour float64
	PerIOPS100Hour   float64
	PerGbpsHour      float64
	// MinBilling rounds any usage duration up to this granularity before
	// charging (zero means per-second billing).
	MinBilling time.Duration
}

// BillableDuration applies the vendor's minimum billing window.
func (a Actual) BillableDuration(d time.Duration) time.Duration {
	if a.MinBilling <= 0 || d <= 0 {
		if d < 0 {
			return 0
		}
		return d
	}
	n := (d + a.MinBilling - 1) / a.MinBilling
	return n * a.MinBilling
}

// Cost returns the vendor-actual cost of holding the package for d, after
// applying the minimum billing window.
func (a Actual) Cost(p Package, d time.Duration) float64 {
	h := a.PerVCoreHour*p.VCores +
		a.PerGBMemHour*p.MemoryGB +
		a.PerGBStorageHour*p.StorageGB +
		a.PerIOPS100Hour*p.IOPS/100 +
		a.PerGbpsHour*p.NetGbps
	return h * a.BillableDuration(d).Hours()
}
