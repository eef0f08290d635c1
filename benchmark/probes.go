package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/cluster"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/experiments"
	"cloudybench/internal/meter"
	"cloudybench/internal/node"
	"cloudybench/internal/replication"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// A probe drives one layer's public functions directly, with nothing else in
// the loop, and reports host time (and allocations) per operation. Probes
// are the same on every workload: they say what an operation costs, the
// ledger says how often a workload pays it.

// inSim runs body as the only client process of a fresh simulation.
func inSim(body func(s *sim.Sim, p *sim.Proc)) {
	s := sim.New(simEpoch)
	s.Go("probe", func(p *sim.Proc) { body(s, p) })
	if err := s.Run(); err != nil {
		panic("benchmark: probe: " + err.Error())
	}
}

// probeDB returns an engine with the SF1 sales tables.
func probeDB(s *sim.Sim, seed int64) *engine.DB {
	db := engine.NewDB(s)
	if err := core.NewDataset(1, seed).CreateTables(db); err != nil {
		panic("benchmark: probe: " + err.Error())
	}
	return db
}

// paidOrder is T2's write: the order row marked paid.
func paidOrder(row engine.Row) engine.Row {
	upd := row.Clone()
	upd[4] = engine.Str(core.StatusPaid)
	return upd
}

// runProbes runs every probe and returns the per-layer metrics they produce.
// It is the last thing of a run that cal times, and converts with it.
func runProbes(seed int64, cal *calibration) map[string]metric {
	m := map[string]metric{}
	// timeOps runs body, which performs n operations, and returns ns net of
	// steal and heap allocations per operation. The reference kernel runs
	// after every probe, and the times become host time once all have run.
	timeOps := func(n int, body func()) (nsPerOp, allocsPerOp float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := now()
		body()
		net, wall := since(t0)
		runtime.ReadMemStats(&m1)
		cal.after(wall)
		return net * 1e9 / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	pair := func(name, unit string, scale float64, n int, body func()) {
		ns, allocs := timeOps(n, body)
		m["probe."+name+"_"+unit] = metric{ns / scale, unit}
		m["probe."+name+"_allocs"] = metric{allocs, "count"}
	}

	// sim: two processes taking turns to sleep, so every Sleep is a real
	// block, dispatch and wake; and four processes sharing one rate queue.
	const nSleep = 200_000
	pair("sim.sleep_wake", "ns", 1, nSleep, func() {
		s := sim.New(simEpoch)
		for i := 0; i < 2; i++ {
			s.Go("sleeper", func(p *sim.Proc) {
				for j := 0; j < nSleep/2; j++ {
					p.Sleep(time.Microsecond)
				}
			})
		}
		_ = s.Run() // no process blocks without a wake-up, so no deadlock
	})
	const nQueue = 200_000
	pair("sim.queue_wait", "ns", 1, nQueue, func() {
		s := sim.New(simEpoch)
		q := sim.NewQueue(s, 1e6)
		for i := 0; i < 4; i++ {
			s.Go("waiter", func(p *sim.Proc) {
				for j := 0; j < nQueue/4; j++ {
					q.Wait(p, 1)
				}
			})
		}
		_ = s.Run()
	})

	// storage: the buffer pool's hit path (Pin of a resident page), its
	// miss path (Pin, then Admit into a full pool, which evicts), and the
	// snapshot/restore pair every warm-cache fork pays.
	const poolPages = 8192
	pool := storage.NewBufferPool(poolPages)
	for i := uint64(0); i < poolPages; i++ {
		pool.Admit(storage.PageID{Table: 1, Num: i})
	}
	const nBuf = 2_000_000
	pair("storage.buf_admit_hit", "ns", 1, nBuf, func() {
		for i := uint64(0); i < nBuf; i++ {
			pool.Pin(storage.PageID{Table: 1, Num: (i * 7919) % poolPages})
		}
	})
	pair("storage.buf_admit_evict", "ns", 1, nBuf/4, func() {
		for i := uint64(0); i < nBuf/4; i++ {
			id := storage.PageID{Table: 2, Num: i}
			if !pool.Pin(id) {
				pool.Admit(id)
			}
		}
	})
	const nSnap = 100
	pair("storage.buf_snapshot_restore", "us", 1e3, nSnap, func() {
		for i := 0; i < nSnap; i++ {
			snap := pool.Snapshot()
			storage.NewBufferPool(poolPages).Restore(snap)
		}
	})
	const nWAL = 400_000
	pair("storage.wal_append_sync", "ns", 1, nWAL, func() {
		log := storage.NewLog()
		rec := storage.Record{Type: storage.RecUpdate, Table: 1, Key: make([]byte, 9), Image: make([]byte, 48), Prior: make([]byte, 48)}
		for i := 0; i < nWAL; i++ {
			rec.Txn = uint64(i / 4)
			log.Append(rec)
			if i%4 == 3 {
				log.Sync()
			}
		}
	})

	// engine: key encoding, a read-only and an updating transaction, a lock
	// acquire/release pair, and replica batch apply of update records.
	const nKey = 2_000_000
	pair("engine.encode_key", "ns", 1, nKey, func() {
		for i := int64(0); i < nKey; i++ {
			sinkKey = engine.IntKey(i)
		}
	})
	const nTxn = 50_000
	var shipped []storage.Record
	inSim(func(s *sim.Sim, p *sim.Proc) {
		db := probeDB(s, seed)
		orders := db.Table(core.TableOrders)
		pair("engine.txn_read_commit", "ns", 1, nTxn, func() {
			for i := int64(1); i <= nTxn; i++ {
				t := db.Begin(p)
				_, _, _ = t.Get(orders, engine.IntKey(i))
				_, _ = t.Commit()
			}
		})
		pair("engine.txn_update_commit", "ns", 1, nTxn, func() {
			for i := int64(1); i <= nTxn; i++ {
				t := db.Begin(p)
				k := engine.IntKey(i)
				row, _, err := t.GetForUpdate(orders, k)
				if err != nil {
					panic("benchmark: probe: " + err.Error())
				}
				if _, err := t.Update(orders, k, paidOrder(row)); err != nil {
					panic("benchmark: probe: " + err.Error())
				}
				recs, err := t.Commit()
				if err != nil {
					panic("benchmark: probe: " + err.Error())
				}
				if i <= 10_000 {
					for _, r := range recs {
						r.Prior = nil // shipped copies carry after-images only
						shipped = append(shipped, r)
					}
				}
			}
		})
		const nLock = 1_000_000
		pair("engine.lock_acquire_release", "ns", 1, nLock, func() {
			lt := db.Locks()
			for i := 0; i < nLock; i++ {
				key := lockKeys[i%len(lockKeys)]
				if err := lt.Acquire(p, 1, key, engine.LockExclusive); err != nil {
					panic("benchmark: probe: " + err.Error())
				}
				lt.Release(1, key)
			}
		})
	})
	inSim(func(s *sim.Sim, p *sim.Proc) {
		replica := probeDB(s, seed)
		const passes = 5
		ns, allocs := timeOps(passes*len(shipped), func() {
			for i := 0; i < passes; i++ {
				for lo := 0; lo < len(shipped); lo += 64 {
					if err := replica.ApplyBatch(shipped[lo:min(lo+64, len(shipped))]); err != nil {
						panic("benchmark: probe: " + err.Error())
					}
				}
			}
		})
		m["probe.engine.apply_batch_ns_per_rec"] = metric{ns, "ns"}
		m["probe.engine.apply_batch_allocs_per_rec"] = metric{allocs, "count"}
	})

	// node: a replica-path read against the null backend, so the cost is
	// CPU-resource charging and buffer bookkeeping alone.
	const nRead = 100_000
	inSim(func(s *sim.Sim, p *sim.Proc) {
		n := node.New(s, node.Config{Name: "probe", VCores: 4, MemoryBytes: 1 << 30, OpCPU: 20 * time.Microsecond, TxnCPU: 40 * time.Microsecond}, node.NullBackend{})
		if err := core.NewDataset(1, seed).CreateTables(n.DB); err != nil {
			panic("benchmark: probe: " + err.Error())
		}
		pair("node.tx_read", "ns", 1, nRead, func() {
			for i := int64(1); i <= nRead; i++ {
				if _, _, err := n.Read(p, core.TableOrders, engine.IntKey(i)); err != nil {
					panic("benchmark: probe: " + err.Error())
				}
			}
		})
	})

	// replication: records handed to a four-lane stream in commit-sized
	// groups, timed until the replica has applied the last one.
	inSim(func(s *sim.Sim, p *sim.Proc) {
		target := node.New(s, node.Config{Name: "probe/ro", VCores: 4, MemoryBytes: 1 << 30}, node.NullBackend{})
		if err := core.NewDataset(1, seed).CreateTables(target.DB); err != nil {
			panic("benchmark: probe: " + err.Error())
		}
		st := replication.NewStream(s, replication.Config{Name: "probe", Lanes: 4, PerRecord: time.Microsecond, BatchInterval: 100 * time.Microsecond}, target)
		ns, allocs := timeOps(len(shipped), func() {
			for lo := 0; lo < len(shipped); lo += 4 {
				st.Publish(p, shipped[lo:min(lo+4, len(shipped))])
				p.Sleep(20 * time.Microsecond)
			}
			for {
				sent, applied := st.Counts()
				if st.Backlog() == 0 && sent == applied {
					break
				}
				p.Sleep(100 * time.Microsecond)
			}
		})
		st.Stop()
		m["probe.replication.publish_to_applied_ns_per_rec"] = metric{ns, "ns"}
		m["probe.replication.publish_to_applied_allocs_per_rec"] = metric{allocs, "count"}
	})

	// meter: the latency reservoir every commit appends to, and the sort a
	// quantile read costs once a cell's worth of samples is in.
	const nAdd = 500_000
	res := meter.NewReservoir()
	ns, _ := timeOps(nAdd, func() {
		for i := 0; i < nAdd; i++ {
			res.Add(time.Duration(i*7919%1000) * time.Microsecond)
		}
	})
	m["probe.meter.reservoir_add_ns"] = metric{ns, "ns"}
	ns, _ = timeOps(1, func() { sinkDur = res.Quantile(0.99) })
	m["probe.meter.reservoir_quantile_us"] = metric{ns / 1e3, "us"}

	// check: the four verdicts over the history of a small read-write cell.
	small, _ := findWorkload(workloads(4), "oltp_hot")
	cell := verifiedCell(small.oltp[0], seed)
	ns, _ = timeOps(1, func() { cell.judge() })
	m["probe.check.verdicts_ms_per_kevent"] = metric{ns / 1e6 / (float64(len(cell.history.Events())) / 1e3), "ms"}

	// cluster: one whole fail-over cell. It stays out of the rounds because
	// FailoverResult exposes no commit count to normalise by.
	var fo evaluator.FailoverResult
	ns, _ = timeOps(1, func() {
		fo = evaluator.RunFailover(evaluator.FailoverConfig{
			Kind: cdb.CDB1, Role: cluster.RW, Concurrency: 4,
			Baseline: 3 * time.Second, Timeout: 20 * time.Second, Seed: seed,
		})
	})
	m["probe.cluster.failover_cell_ms"] = metric{ns / 1e6, "ms"}
	m["virt.failover_f_ms"] = metric{ms(fo.F), "ms"}
	m["virt.failover_r_ms"] = metric{ms(fo.R), "ms"}

	for name, v := range m {
		if strings.HasPrefix(name, "probe.") && v.Unit != "count" {
			m[name] = metric{cal.host(v.Value), v.Unit}
		}
	}

	// experiments: Table V's fifteen cells on one worker against two (one
	// where the machine has a single CPU), with GOMAXPROCS raised to match
	// for the length of the probe. Plain wall time, because host time is
	// defined for one busy thread. An untimed run first fills the
	// process-wide warm-up cache, so that both legs do the same work; the legs
	// alternate and the ratio is of each leg's less disturbed run.
	workers := min(2, runtime.NumCPU())
	defer experiments.SetParallelism(0) // after GOMAXPROCS is back, so the pool width follows it
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	sc := experiments.Scale{Name: "probe", Seed: seed, Warmup: 100 * time.Millisecond, Measure: 200 * time.Millisecond, Concurrency: []int{16}, SFs: []int{1}}
	tableV := func(workers int) float64 {
		experiments.SetParallelism(workers)
		t0 := time.Now()
		if _, err := experiments.Run("t5", sc); err != nil {
			panic("benchmark: probe: " + err.Error())
		}
		return time.Since(t0).Seconds()
	}
	tableV(workers)
	seq, par := tableV(1), tableV(workers)
	seq, par = min(seq, tableV(1)), min(par, tableV(workers))
	m["probe.experiments.cells_par_speedup"] = metric{seq / par, "x"}
	return m
}

var (
	sinkKey  engine.Key
	sinkDur  time.Duration
	lockKeys = func() []string {
		keys := make([]string, 1024)
		for i := range keys {
			keys[i] = fmt.Sprintf("orders/%08d", i)
		}
		return keys
	}()
)
