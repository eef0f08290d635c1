// Command cbcost is a resource-unit-cost calculator (paper Table III): it
// prices an arbitrary resource package at the standardized unit costs,
// itemized per resource and per billing granularity, enabling the
// horizontal cost comparisons the paper advocates.
//
// Usage:
//
//	cbcost -vcores 4 -mem 16 -storage 42 -iops 1000 -net 10 [-fabric tcp|rdma|local] [-hours 1] [-nodes 2]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cloudybench/internal/netsim"
	"cloudybench/internal/pricing"
)

func main() {
	vcores := flag.Float64("vcores", 4, "vCores per node")
	mem := flag.Float64("mem", 16, "memory GB per node")
	storage := flag.Float64("storage", 42, "storage GB per node")
	iops := flag.Float64("iops", 1000, "provisioned IOPS (cluster)")
	net := flag.Float64("net", 10, "network Gbps (cluster)")
	fabric := flag.String("fabric", "tcp", "network fabric: tcp, rdma, or local")
	hours := flag.Float64("hours", 1, "duration to price")
	nodes := flag.Int("nodes", 1, "compute nodes (CPU/memory/storage multiply)")
	flag.Parse()

	var f netsim.Fabric
	switch *fabric {
	case "tcp":
		f = netsim.TCP
	case "rdma":
		f = netsim.RDMA
	case "local":
		f = netsim.Local
	default:
		fmt.Fprintf(os.Stderr, "cbcost: unknown fabric %q (tcp, rdma, local)\n", *fabric)
		os.Exit(2)
	}
	node := pricing.Package{
		VCores: *vcores, MemoryGB: *mem, StorageGB: *storage,
		IOPS: *iops, NetGbps: *net, Fabric: f,
	}
	pkg := pricing.ClusterPackage(node, *nodes)
	d := time.Duration(*hours * float64(time.Hour))
	b := pricing.CostBreakdown(pkg, d)
	perMin := pricing.PerMinuteBreakdown(pkg)

	fmt.Printf("Resource package (%d node(s)): %.2g vCores, %.2g GB RAM, %.2g GB storage, %.0f IOPS, %.2g Gbps %s\n\n",
		*nodes, pkg.VCores, pkg.MemoryGB, pkg.StorageGB, pkg.IOPS, pkg.NetGbps, *fabric)
	fmt.Printf("  %-9s %14s %14s\n", "resource", "$/minute", fmt.Sprintf("$ per %.3gh", *hours))
	fmt.Printf("  %-9s %14.6f %14.6f\n", "cpu", perMin.CPU, b.CPU)
	fmt.Printf("  %-9s %14.6f %14.6f\n", "memory", perMin.Memory, b.Memory)
	fmt.Printf("  %-9s %14.6f %14.6f\n", "storage", perMin.Storage, b.Storage)
	fmt.Printf("  %-9s %14.6f %14.6f\n", "iops", perMin.IOPS, b.IOPS)
	fmt.Printf("  %-9s %14.6f %14.6f\n", "network", perMin.Network, b.Network)
	fmt.Printf("  %-9s %14.6f %14.6f\n", "total", perMin.Total(), b.Total())
}
