package main

import (
	"fmt"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/check"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// simEpoch is the virtual date every cell the benchmark composes starts at
// (the evaluator's own epoch is unexported; the value is the same).
var simEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// cellCounts holds what one composed cell's layers counted. Every field is a
// pure function of the cell config and the seed.
type cellCounts struct {
	commits, errors, terminals int64

	bufHits, bufMisses       int64 // RW node, as OLTPResult.HitRatio reads it
	bufEvictions, bufFlushes int64 // every node
	walRecords, walBytes     int64 // RW node's log
	pageReads, pageWrites    int64 // every node
	aborts                   int64 // RW engine
	lockWaits, lockTimeouts  int64 // RW lock table
	shipped                  int64 // every stream, once drained
	appliedAtStop            int64 // every stream, at the instant clients stop
	quiesce                  time.Duration
	netBytes                 int64 // every link
	lagUpdate                time.Duration
	// The recorded history and the engines it is judged against.
	history  *check.Recorder
	rw       *engine.DB
	replicas []*engine.DB
}

// judge passes the four verdicts on the cell's history: money conserved, row
// counts balanced, no read of uncommitted data, replicas equal to the primary.
func (c *cellCounts) judge() []check.Verdict {
	vs := []check.Verdict{
		check.Conservation(c.history),
		check.RowBalance(c.history, c.rw),
		check.ReadCommitted(c.history),
	}
	for i, ro := range c.replicas {
		vs = append(vs, check.Convergence(fmt.Sprintf("ro%d", i), c.rw, ro))
	}
	return vs
}

func (c *cellCounts) add(o cellCounts) {
	c.commits += o.commits
	c.errors += o.errors
	c.terminals += o.terminals
	c.bufHits += o.bufHits
	c.bufMisses += o.bufMisses
	c.bufEvictions += o.bufEvictions
	c.bufFlushes += o.bufFlushes
	c.walRecords += o.walRecords
	c.walBytes += o.walBytes
	c.pageReads += o.pageReads
	c.pageWrites += o.pageWrites
	c.aborts += o.aborts
	c.lockWaits += o.lockWaits
	c.lockTimeouts += o.lockTimeouts
	c.shipped += o.shipped
	c.appliedAtStop += o.appliedAtStop
	c.quiesce += o.quiesce
	c.netBytes += o.netBytes
	c.lagUpdate = max(c.lagUpdate, o.lagUpdate)
}

// verifiedCell composes one OLTP cell the way examples/quickstart does —
// sim.New, cdb.MustDeploy(PreWarm), core.NewRunner, Run — with a
// check.Recorder watching the RW engine, quiesces replication, and reads every
// layer's public counters; judge passes the verdicts on what it recorded. It is the benchmark's
// output check and the source of its per-layer counts; it is never timed.
func verifiedCell(cfg evaluator.OLTPConfig, seed int64) cellCounts {
	replicas := cfg.Replicas
	if replicas == evaluator.NoReplicas {
		replicas = 0
	}
	s := sim.New(simEpoch)
	d := cdb.MustDeploy(s, cdb.ProfileFor(cfg.Kind), cdb.Options{
		SF: cfg.SF, Seed: seed, Replicas: replicas, BufferBytes: cfg.BufferBytes,
		PreWarm: true, Serverless: cdb.Bool(false),
	})
	rec := check.NewRecorder()
	d.RW().DB.SetObserver(rec)
	col := core.NewCollector()
	r := core.NewRunner(s, core.Config{
		Name: "oltp", Seed: seed, Mix: cfg.Mix,
		Write: d.RW, Read: d.ReadNode, Collector: col,
	})
	var c cellCounts
	span := cfg.Warmup + cfg.Measure
	s.Go("ctl", func(p *sim.Proc) {
		r.SetConcurrency(cfg.Concurrency)
		p.Sleep(span)
		r.Stop()
		r.Wait(p)
		stopAt := p.Elapsed()
		for _, st := range d.Streams() {
			_, applied := st.Counts()
			c.appliedAtStop += applied
		}
		for _, st := range d.Streams() {
			for {
				shipped, applied := st.Counts()
				if st.Backlog() == 0 && shipped == applied {
					break
				}
				p.Sleep(time.Millisecond)
			}
		}
		c.quiesce = p.Elapsed() - stopAt
		d.Shutdown()
	})
	if err := s.Run(); err != nil {
		panic("benchmark: verified cell: " + err.Error())
	}

	rw := d.RW()
	c.commits, c.errors, c.terminals = col.Commits(), col.Errors(), col.Terminals()
	c.bufHits, c.bufMisses, _, _ = rw.Buf.Stats()
	for _, n := range d.Nodes() {
		_, _, ev, fl := n.Buf.Stats()
		c.bufEvictions += ev
		c.bufFlushes += fl
		rd, wr := n.PageStats()
		c.pageReads += rd
		c.pageWrites += wr
	}
	c.walRecords, c.walBytes = int64(rw.DB.Log().Head()), rw.DB.Log().Bytes()
	_, c.aborts = rw.DB.Stats()
	c.lockWaits, c.lockTimeouts = rw.DB.Locks().Stats()
	for _, l := range d.Links() {
		c.netBytes += l.BytesSent()
	}
	for _, st := range d.Streams() {
		shipped, _ := st.Counts()
		c.shipped += shipped
		c.lagUpdate = max(c.lagUpdate, st.MeanLag(storage.RecUpdate))
	}
	c.history, c.rw = rec, rw.DB
	for i := 0; d.Cluster.Replica(i) != nil; i++ {
		c.replicas = append(c.replicas, d.Cluster.Replica(i).Node.DB)
	}
	return c
}

// verify runs the verified cell of every OLTP cell config of the workload and
// enforces the verdicts and the shape guards. The gauntlet judges its own
// cells in every round, so it has nothing to add here.
func (w workload) verify(seed int64) (cellCounts, error) {
	var total cellCounts
	for _, cfg := range w.oltp {
		c := verifiedCell(cfg, seed)
		for _, v := range c.judge() {
			if !v.Passed {
				return total, fmt.Errorf("%s: verified %s cell: %s", w.name, cfg.Kind, v)
			}
		}
		if c.errors != 0 || c.terminals != 0 {
			return total, fmt.Errorf("%s: verified %s cell: %d failed requests, %d abandoned; the workload must run fault-free",
				w.name, cfg.Kind, c.errors, c.terminals)
		}
		hit := ratio(c.bufHits, c.bufHits+c.bufMisses)
		if hit < w.hitMin || hit > w.hitMax {
			return total, fmt.Errorf("%s: guard: %s buffer hit ratio %.3f outside [%.2f, %.2f]", w.name, cfg.Kind, hit, w.hitMin, w.hitMax)
		}
		if w.noWrites && (c.walRecords != 0 || c.shipped != 0) {
			return total, fmt.Errorf("%s: guard: %d WAL records and %d shipped records on a read-only workload", w.name, c.walRecords, c.shipped)
		}
		total.add(c)
	}
	return total, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
