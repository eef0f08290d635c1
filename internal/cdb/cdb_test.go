package cdb

import (
	"math"
	"testing"
	"time"

	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/pricing"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestProfilesAreComplete(t *testing.T) {
	if len(Kinds) != 5 {
		t.Fatalf("%d profiles", len(Kinds))
	}
	for _, k := range Kinds {
		p := ProfileFor(k)
		if p.DisplayName == "" || p.Engine == "" || p.VCores == 0 ||
			p.MemoryBytes == 0 || p.OpCPU == 0 || p.PackageNode.VCores == 0 {
			t.Errorf("%s: incomplete profile %+v", p.Kind, p)
		}
		if p.Actual.PerVCoreHour == 0 {
			t.Errorf("%s: missing actual pricing", p.Kind)
		}
	}
	// Architecture sanity per paper Table IV and §III.
	if !ProfileFor(RDS).LocalStorage || ProfileFor(CDB1).LocalStorage {
		t.Fatal("storage coupling flags")
	}
	if ProfileFor(CDB4).RemoteBufBytes == 0 {
		t.Fatal("CDB4 must have a remote buffer")
	}
	if ProfileFor(RDS).Autoscale != nil || ProfileFor(CDB4).Autoscale != nil {
		t.Fatal("RDS/CDB4 are fixed-size")
	}
	if ProfileFor(CDB3).Autoscale.PauseAfterIdle == 0 {
		t.Fatal("CDB3 must pause-and-resume")
	}
	if !ProfileFor(CDB4).Failover.PromoteOnRWFailure {
		t.Fatal("CDB4 must promote on RW failure")
	}
	if ProfileFor(CDB2).Tenancy != TenancyPool || ProfileFor(CDB3).Tenancy != TenancyBranch {
		t.Fatal("tenancy models")
	}
	// Replay parallelism: CDB3 parallel, CDB1/CDB2 sequential (§III-F).
	if ProfileFor(CDB3).Replication.Lanes <= 1 || ProfileFor(CDB1).Replication.Lanes != 1 {
		t.Fatal("replay lanes")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown kind did not panic")
		}
	}()
	ProfileFor("nope")
}

func TestTableVPackageTotalsPerMinute(t *testing.T) {
	// Paper Table V "Resource" column (1 RW + 1 RO cluster, $/minute).
	want := map[Kind]float64{
		RDS: 0.0437, CDB1: 0.0512, CDB2: 0.0538, CDB3: 0.0443, CDB4: 0.0797,
	}
	for kind, expect := range want {
		p := ProfileFor(kind)
		got := pricing.PerMinuteBreakdown(pricing.ClusterPackage(p.PackageNode, 2)).Total()
		if math.Abs(got-expect) > 0.002 {
			t.Errorf("%s cluster cost/min = %.4f, want ~%.4f", kind, got, expect)
		}
	}
}

func deployAndRun(t *testing.T, kind Kind, opts Options, dur time.Duration, conc int, mix core.Mix) (*core.Collector, *Deployment) {
	t.Helper()
	s := sim.New(epoch)
	d := MustDeploy(s, ProfileFor(kind), opts)
	col := core.NewCollector()
	r := core.NewRunner(s, core.Config{
		Name: string(kind), Seed: 7, Mix: mix,
		Write:     d.RW,
		Read:      d.ReadNode,
		Collector: col,
	})
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(conc)
		p.Sleep(dur)
		r.Stop()
		r.Wait(p)
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return col, d
}

func TestDeployAllKindsRunWorkload(t *testing.T) {
	for _, kind := range Kinds {
		col, d := deployAndRun(t, kind, Options{Replicas: 1, PreWarm: true}, time.Second, 8, core.MixReadWrite)
		if col.Commits() < 100 {
			t.Errorf("%s: commits = %d", kind, col.Commits())
		}
		if col.Errors() != 0 {
			t.Errorf("%s: errors = %d", kind, col.Errors())
		}
		if len(d.Nodes()) != 2 {
			t.Errorf("%s: %d nodes", kind, len(d.Nodes()))
		}
	}
}

func TestReplicationKeepsReplicaFresh(t *testing.T) {
	// After a write-heavy run plus drain, the replica's orderline table
	// must converge to the primary's.
	s := sim.New(epoch)
	d := MustDeploy(s, ProfileFor(CDB3), Options{Replicas: 1})
	col := core.NewCollector()
	r := core.NewRunner(s, core.Config{
		Name: "w", Seed: 7, Mix: core.Mix{T1: 100},
		Write: d.RW, Read: d.ReadNode, Collector: col,
	})
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(4)
		p.Sleep(time.Second)
		r.Stop()
		r.Wait(p)
		p.Sleep(5 * time.Second) // drain replication
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rwMax := d.RW().DB.Table(core.TableOrderline).MaxID()
	roMax := d.Cluster.Replica(0).Node.DB.Table(core.TableOrderline).MaxID()
	if rwMax != roMax {
		t.Fatalf("replica max id %d != primary %d", roMax, rwMax)
	}
}

func TestCDB4RemoteBufferInvalidation(t *testing.T) {
	s := sim.New(epoch)
	d := MustDeploy(s, ProfileFor(CDB4), Options{Replicas: 1, PreWarm: true})
	ro := d.Cluster.Replica(0).Node
	s.Go("ctl", func(p *sim.Proc) {
		// Warm the replica's local copy of order 5's page.
		ro.Read(p, core.TableOrders, engine.IntKey(5))
		pg := pageOfOrder(ro, 5)
		if !ro.Buf.Contains(pg) {
			t.Error("page not cached on replica after read")
		}
		// Update order 5 on the primary; replication should invalidate the
		// replica's cached page.
		rw := d.RW()
		tx, _ := rw.Begin(p)
		tbl := rw.DB.Table(core.TableOrders)
		row, _ := tx.Get(tbl, engine.IntKey(5))
		upd := row.Clone()
		upd[4] = engine.Str("PAID")
		tx.Update(tbl, engine.IntKey(5), upd)
		tx.Commit()
		p.Sleep(time.Second)
		if ro.Buf.Contains(pg) {
			t.Error("replica page not invalidated after primary update")
		}
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBufferSizeOverrideChangesHitRatio(t *testing.T) {
	run := func(buf int64) float64 {
		col, d := deployAndRun(t, RDS, Options{Replicas: 0, BufferBytes: buf, PreWarm: true},
			2*time.Second, 8, core.MixReadWrite)
		_ = col
		return d.RW().Buf.HitRatio()
	}
	small := run(16 << 20)
	big := run(1 << 30)
	if big <= small {
		t.Fatalf("hit ratio small=%.3f big=%.3f", small, big)
	}
}

func TestServerlessOverride(t *testing.T) {
	s := sim.New(epoch)
	d := MustDeploy(s, ProfileFor(CDB1), Options{Serverless: Bool(false)})
	if d.Scaler != nil {
		t.Fatal("serverless disabled but scaler exists")
	}
	d2 := MustDeploy(s, ProfileFor(CDB1), Options{})
	if d2.Scaler == nil {
		t.Fatal("CDB1 default should be serverless")
	}
	d.Shutdown()
	d2.Shutdown()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRUCCostTracksAllocation(t *testing.T) {
	s := sim.New(epoch)
	d := MustDeploy(s, ProfileFor(RDS), Options{Replicas: 1})
	s.Go("idle", func(p *sim.Proc) {
		p.Sleep(time.Minute)
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := d.RUCCost(0, time.Minute)
	// Fixed allocation for one minute = Table V per-minute cluster cost.
	want := pricing.PerMinuteBreakdown(d.ClusterPackage()).Total()
	if math.Abs(got-want) > 0.001 {
		t.Fatalf("1-minute RUC cost = %.5f, want %.5f", got, want)
	}
	// Actual cost applies the 10-minute minimum: ~10x the per-minute rate.
	actual := d.ActualCost(0, time.Minute)
	if actual < got*3 {
		t.Fatalf("actual cost %.5f should exceed RUC %.5f via 10-min minimum", actual, got)
	}
}

func TestTenantSetModels(t *testing.T) {
	s := sim.New(epoch)
	for _, kind := range Kinds {
		prof := ProfileFor(kind)
		ts := MustDeployTenants(s, prof, 3, Options{})
		if len(ts.Tenants) != 3 {
			t.Fatalf("%s: %d tenants", kind, len(ts.Tenants))
		}
		switch prof.Tenancy {
		case TenancyPool:
			if ts.Pool == nil || ts.Pool.Capacity() != 12*node.MilliPerCore {
				t.Errorf("%s: pool capacity wrong", kind)
			}
		default:
			if ts.Pool != nil {
				t.Errorf("%s: unexpected pool", kind)
			}
		}
		ts.Shutdown()
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTenantPackagesMatchTableVII(t *testing.T) {
	// Paper Table VII "Total Resources" for 3 tenants and resulting cost.
	cases := []struct {
		kind              Kind
		vcores, mem, stor float64
		iops, net         float64
		costPerMin        float64
	}{
		{CDB2, 12, 36, 189, 54_000, 10, 0.06},
		{CDB3, 12, 48, 63, 3_000, 10, 0.058},
		{RDS, 12, 48, 126, 3_000, 30, 0.085},
		{CDB1, 12, 96, 378, 3_000, 30, 0.096},
		{CDB4, 12, 120, 189, 84_000, 30, 0.176},
	}
	s := sim.New(epoch)
	for _, c := range cases {
		ts := MustDeployTenants(s, ProfileFor(c.kind), 3, Options{})
		p := ts.Package()
		if p.VCores != c.vcores || p.MemoryGB != c.mem || p.StorageGB != c.stor ||
			p.IOPS != c.iops || p.NetGbps != c.net {
			t.Errorf("%s package = %+v, want %+v", c.kind, p, c)
		}
		if got := ts.CostPerMinute(); math.Abs(got-c.costPerMin) > 0.01 {
			t.Errorf("%s cost/min = %.4f, want ~%.3f", c.kind, got, c.costPerMin)
		}
		ts.Shutdown()
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestElasticPoolSharesCapacity(t *testing.T) {
	// One busy tenant in a pool should reach far beyond its fair share
	// when the others are idle.
	s := sim.New(epoch)
	ts := MustDeployTenants(s, ProfileFor(CDB2), 3, Options{PreWarm: true})
	col := core.NewCollector()
	r := core.NewRunner(s, core.Config{
		Name: "t0", Seed: 7, Mix: core.MixReadOnly,
		Write:     func() *node.Node { return ts.Tenants[0].Node },
		Read:      func() *node.Node { return ts.Tenants[0].Node },
		Collector: col,
	})
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(64)
		p.Sleep(2 * time.Second)
		r.Stop()
		r.Wait(p)
		ts.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Peak pool usage must exceed the 4-core fair share.
	if peak := ts.Pool.Peak(); peak <= 4*node.MilliPerCore {
		t.Fatalf("pool peak = %d millicores, want > 4000 (sharing)", peak)
	}
}

func pageOfOrder(n *node.Node, id int64) storage.PageID {
	return n.DB.Table(core.TableOrders).PageOfBase(id)
}
