package pricing

import (
	"math"
	"testing"
	"time"

	"cloudybench/internal/netsim"
)

func within(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

// awsRDSPackage is the AWS RDS row of paper Table V:
// 4 vCores, 16 GB, 42 GB storage, 1000 IOPS, 10 Gbps TCP.
func awsRDSPackage() Package {
	return Package{VCores: 4, MemoryGB: 16, StorageGB: 42, IOPS: 1000, NetGbps: 10, Fabric: netsim.TCP}
}

func TestPerMinuteBreakdownMatchesTableVForRDS(t *testing.T) {
	b := PerMinuteBreakdown(awsRDSPackage())
	// Expected values are exactly paper Table V, AWS RDS row.
	if !within(b.CPU, 0.0123, 0.0001) {
		t.Errorf("CPU/min = %v, want ~0.0123", b.CPU)
	}
	if !within(b.Memory, 0.0025, 0.0001) {
		t.Errorf("Memory/min = %v, want ~0.0025", b.Memory)
	}
	if !within(b.Storage, 0.0006, 0.0001) {
		t.Errorf("Storage/min = %v, want ~0.0006", b.Storage)
	}
	if !within(b.IOPS, 0.000025, 0.000001) {
		t.Errorf("IOPS/min = %v, want ~0.000025", b.IOPS)
	}
	if !within(b.Network, 0.0128, 0.0001) {
		t.Errorf("Network/min = %v, want ~0.0128", b.Network)
	}
	// Table V's "Resource" total covers the 1 RW + 1 RO cluster: per-node
	// CPU/memory/storage doubled, IOPS and network shared.
	cluster := PerMinuteBreakdown(ClusterPackage(awsRDSPackage(), 2))
	if !within(cluster.Total(), 0.0437, 0.0005) {
		t.Errorf("cluster total/min = %v, want ~$0.0437 (Table V)", cluster.Total())
	}
}

func TestRDMACostsThreexTCP(t *testing.T) {
	tcp := Package{NetGbps: 10, Fabric: netsim.TCP}
	rdma := Package{NetGbps: 10, Fabric: netsim.RDMA}
	ct := HourlyBreakdown(tcp).Network
	cr := HourlyBreakdown(rdma).Network
	if !within(cr/ct, 3.0, 0.01) {
		t.Fatalf("RDMA/TCP cost ratio = %v, want 3x (paper §III-B)", cr/ct)
	}
}

func TestLocalFabricHasNoNetworkCost(t *testing.T) {
	p := Package{NetGbps: 10, Fabric: netsim.Local}
	if got := HourlyBreakdown(p).Network; got != 0 {
		t.Fatalf("local fabric network cost = %v, want 0", got)
	}
}

func TestCDB4RowMatchesTableV(t *testing.T) {
	// CDB4: 4 vCores, 40 GB (16 local + 24 remote), 63 GB storage,
	// 84000 IOPS, 10 Gbps RDMA -> total $0.0797/min.
	p := Package{VCores: 4, MemoryGB: 40, StorageGB: 63, IOPS: 84000, NetGbps: 10, Fabric: netsim.RDMA}
	b := PerMinuteBreakdown(p)
	if !within(b.Memory, 0.0063, 0.0001) {
		t.Errorf("Memory/min = %v, want ~0.0063", b.Memory)
	}
	if !within(b.IOPS, 0.0021, 0.0001) {
		t.Errorf("IOPS/min = %v, want ~0.0021", b.IOPS)
	}
	if !within(b.Network, 0.0385, 0.0001) {
		t.Errorf("Network/min = %v, want ~0.0385", b.Network)
	}
	cluster := PerMinuteBreakdown(ClusterPackage(p, 2))
	if !within(cluster.Total(), 0.0797, 0.001) {
		t.Errorf("cluster total/min = %v, want ~$0.0797 (Table V)", cluster.Total())
	}
}

func TestCostScalesLinearlyWithDuration(t *testing.T) {
	p := awsRDSPackage()
	oneH := CostBreakdown(p, time.Hour).Total()
	twoH := CostBreakdown(p, 2*time.Hour).Total()
	if !within(twoH, 2*oneH, 1e-9) {
		t.Fatalf("cost not linear: 1h=%v 2h=%v", oneH, twoH)
	}
	if CostBreakdown(p, 0).Total() != 0 {
		t.Fatal("zero duration should cost zero")
	}
}

func TestCostBreakdownTotalsMatchCost(t *testing.T) {
	p := awsRDSPackage()
	d := 17 * time.Minute
	if !within(CostBreakdown(p, d).Total(), HourlyBreakdown(p).Total()*d.Hours(), 1e-12) {
		t.Fatal("CostBreakdown total != hourly price × duration")
	}
}

func TestPackageAddAndScale(t *testing.T) {
	a := Package{VCores: 4, MemoryGB: 16, StorageGB: 63, IOPS: 1000, NetGbps: 10, Fabric: netsim.TCP}
	half := a.Scale(0.5)
	if half.VCores != 2 || half.MemoryGB != 8 {
		t.Fatalf("Scale: %+v", half)
	}
}

func TestActualMinBillingRoundsUp(t *testing.T) {
	a := Actual{PerVCoreHour: 0.1, MinBilling: 10 * time.Minute}
	cases := []struct {
		d, want time.Duration
	}{
		{0, 0},
		{time.Second, 10 * time.Minute},
		{10 * time.Minute, 10 * time.Minute},
		{10*time.Minute + time.Second, 20 * time.Minute},
		{-time.Second, 0},
	}
	for _, c := range cases {
		if got := a.BillableDuration(c.d); got != c.want {
			t.Errorf("BillableDuration(%v) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestActualCostUsesVendorRatesAndGranularity(t *testing.T) {
	// One-hour-minimum vendor (CDB2's elastic pool quirk).
	pool := Actual{PerVCoreHour: 0.42, MinBilling: time.Hour}
	p := Package{VCores: 1}
	got := pool.Cost(p, time.Minute)
	if !within(got, 0.42, 1e-9) {
		t.Fatalf("1-minute use of 1-hour-minimum vendor = %v, want 0.42", got)
	}
	// Per-second vendor.
	cheap := Actual{PerVCoreHour: 0.16}
	got = cheap.Cost(p, 30*time.Minute)
	if !within(got, 0.08, 1e-9) {
		t.Fatalf("30-minute use of per-second vendor = %v, want 0.08", got)
	}
}
