package evaluator

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/metrics"
	"cloudybench/internal/node"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// LagConfig parameterizes a replication lag-time evaluation (paper §II-B.2
// and §III-F): run insert/update/delete traffic at the given ratio and
// measure how long the replica takes to reflect each committed change.
type LagConfig struct {
	Kind cdb.Kind
	// IUD are the insert/update/delete percentages; the paper evaluates
	// {(60,30,10), (100,0,0), (0,100,0), (0,0,100)}.
	IUD         [3]float64
	Concurrency int
	Duration    time.Duration
	SF          int
	Seed        int64
	// Probes adds client-observed consistency probes: after a primary
	// commit the client polls the replica until the change is visible
	// (the paper's measurement method). Zero disables.
	Probes int
}

// LagResult reports per-DML mean lag, the C-Score, and (optionally) the
// client-observed probe lag.
type LagResult struct {
	Kind      cdb.Kind
	IUD       [3]float64
	InsertLag time.Duration
	UpdateLag time.Duration
	DeleteLag time.Duration
	CScore    time.Duration
	ProbeLag  time.Duration // mean client-observed lag (0 if no probes)
}

// PaperIUDMixes lists the four (I,U,D) combinations of §III-F.
var PaperIUDMixes = [][3]float64{
	{60, 30, 10},
	{100, 0, 0},
	{0, 100, 0},
	{0, 0, 100},
}

// RunLag measures replication lag for one SUT and IUD mix.
func RunLag(cfg LagConfig) LagResult { return runLag("lag", cdb.ProfileFor(cfg.Kind), cfg) }

// runLag drives cfg's IUD traffic on prof with one replica, then the
// client-observed probes; the drain keeps the cluster running until the
// replica has applied every record it was shipped.
func runLag(name string, prof cdb.Profile, cfg LagConfig) LagResult {
	cfg.Concurrency = orDefault(cfg.Concurrency, 8)
	cfg.Duration = orDefault(cfg.Duration, 10*time.Second)
	var probeTotal time.Duration
	var probeCount int
	rc := runCell(spec{
		name: name, prof: prof, opts: fixed(cfg.SF, cfg.Seed),
		mix: core.IUDMix(cfg.IUD[0], cfg.IUD[1], cfg.IUD[2]),
		body: func(p *sim.Proc, rc *run) {
			rc.burst(p, name, cfg.Concurrency, cfg.Duration, rc.col)
			// Client-observed probes: write a marker on the primary, poll the
			// replica until the change is visible.
			replica := rc.d.Cluster.Replica(0).Node
			for i := 0; i < cfg.Probes; i++ {
				lag, ok := probeOnce(p, rc.d, replica, int64(1000+i*7))
				if ok {
					probeTotal += lag
					probeCount++
				}
				p.Sleep(50 * time.Millisecond)
			}
		},
	})

	st := rc.d.Streams()[0]
	res := LagResult{
		Kind:      prof.Kind,
		IUD:       cfg.IUD,
		InsertLag: st.MeanLag(storage.RecInsert),
		UpdateLag: st.MeanLag(storage.RecUpdate),
		DeleteLag: st.MeanLag(storage.RecDelete),
	}
	res.CScore = metrics.CScore(res.InsertLag, res.UpdateLag, res.DeleteLag, 1)
	if probeCount > 0 {
		res.ProbeLag = probeTotal / time.Duration(probeCount)
	}
	return res
}

// probeOnce updates one order on the primary with a unique timestamp and
// polls the replica until the update is visible — the paper's measurement
// method: "the client will try to read the data change from the replica
// until the data is consistent between the RW node and RO nodes".
func probeOnce(p *sim.Proc, d *cdb.Deployment, replica *node.Node, oid int64) (time.Duration, bool) {
	rw := d.RW()
	tbl := rw.DB.Table(core.TableOrders)
	key := engine.IntKey(oid)
	tx, err := rw.Begin(p)
	if err != nil {
		return 0, false
	}
	row, err := tx.Get(tbl, key)
	if err != nil {
		tx.Abort()
		return 0, false
	}
	marker := p.Now().UnixMicro()
	upd := row.Clone()
	upd[5] = engine.Int(marker)
	if err := tx.Update(tbl, key, upd); err != nil {
		tx.Abort()
		return 0, false
	}
	if err := tx.Commit(); err != nil {
		return 0, false
	}
	committed := p.Elapsed()
	deadline := committed + 10*time.Second
	for p.Elapsed() < deadline {
		got, ok, err := replica.Read(p, core.TableOrders, key)
		if err == nil && ok && got[5].Int() == marker {
			return p.Elapsed() - committed, true
		}
		p.Sleep(200 * time.Microsecond)
	}
	return 0, false
}
