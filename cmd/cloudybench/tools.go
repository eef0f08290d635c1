package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/netsim"
	"cloudybench/internal/pricing"
	"cloudybench/internal/sim"
)

// runDataset prints the dataset scaling model for a scale factor and dumps
// sample rows in CSV for sanity-checking the generators. The data is
// deterministic-on-demand, so "generation" costs nothing until rows are read.
func runDataset(args []string) error {
	fs := flag.NewFlagSet("dataset", flag.ContinueOnError)
	sf := fs.Int("sf", 1, "scale factor")
	seed := fs.Int64("seed", 42, "generator seed")
	sample := fs.Int("sample", 3, "sample rows to print per table (0 = none)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}

	d := core.NewDataset(*sf, *seed)
	fmt.Printf("CloudyBench dataset, SF%d (seed %d)\n\n", d.SF, d.Seed)
	fmt.Printf("  %-10s %12s\n", "table", "rows")
	fmt.Printf("  %-10s %12d\n", core.TableCustomer, d.Customers)
	fmt.Printf("  %-10s %12d\n", core.TableOrders, d.Orders)
	fmt.Printf("  %-10s %12d\n", core.TableOrderline, d.Orderlines)
	fmt.Printf("\n  raw size ~ %.2f GB\n\n", float64(d.RawBytes())/(1<<30))

	if *sample <= 0 {
		return nil
	}
	db := engine.NewDB(sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)))
	if err := d.CreateTables(db); err != nil {
		return err
	}
	for _, name := range []string{core.TableCustomer, core.TableOrders, core.TableOrderline} {
		tbl := db.Table(name)
		var cols []string
		for _, c := range tbl.Schema.Cols {
			cols = append(cols, c.Name)
		}
		fmt.Printf("%s (%s)\n", name, strings.Join(cols, ","))
		for id := int64(1); id <= int64(*sample); id++ {
			row, _, ok := tbl.Get(engine.IntKey(id))
			if !ok {
				continue
			}
			var vals []string
			for _, v := range row {
				vals = append(vals, v.String())
			}
			fmt.Printf("  %s\n", strings.Join(vals, ","))
		}
		fmt.Println()
	}
	return nil
}

// runCost is the resource-unit-cost calculator (paper Table III): it prices
// an arbitrary resource package at the standardized unit costs, itemized per
// resource and per billing granularity.
func runCost(args []string) error {
	fs := flag.NewFlagSet("cost", flag.ContinueOnError)
	vcores := fs.Float64("vcores", 4, "vCores per node")
	mem := fs.Float64("mem", 16, "memory GB per node")
	storage := fs.Float64("storage", 42, "storage GB per node")
	iops := fs.Float64("iops", 1000, "provisioned IOPS (cluster)")
	net := fs.Float64("net", 10, "network Gbps (cluster)")
	fabric := fs.String("fabric", "tcp", "network fabric: tcp, rdma, or local")
	hours := fs.Float64("hours", 1, "duration to price")
	nodes := fs.Int("nodes", 1, "compute nodes (CPU/memory/storage multiply)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	f := netsim.Fabric(*fabric)
	switch f {
	case netsim.TCP, netsim.RDMA, netsim.Local:
	default:
		return fmt.Errorf("cost: unknown fabric %q (tcp, rdma, local)", *fabric)
	}

	pkg := pricing.ClusterPackage(pricing.Package{
		VCores: *vcores, MemoryGB: *mem, StorageGB: *storage,
		IOPS: *iops, NetGbps: *net, Fabric: f,
	}, *nodes)
	b := pricing.CostBreakdown(pkg, time.Duration(*hours*float64(time.Hour)))
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
	return nil
}
