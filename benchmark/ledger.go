package main

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"
)

// countMetricDefs are the per-layer metrics read from the layers' public
// counters and from the cells' virtual results, with their units.
var countMetricDefs = []struct{ name, unit string }{
	{"storage.buf_hit_ratio", "frac"}, {"storage.buf_evictions_per_commit", "count"}, {"storage.buf_flushes_per_commit", "count"},
	{"storage.wal_records_per_commit", "count"}, {"storage.wal_bytes_per_commit", "B"},
	{"node.page_reads_per_commit", "count"}, {"node.page_writes_per_commit", "count"},
	{"engine.aborts_per_kcommit", "count"}, {"engine.lock_waits_per_kcommit", "count"}, {"engine.lock_timeouts_per_kcommit", "count"},
	{"replication.shipped_per_commit", "count"}, {"replication.applied_frac_at_stop", "frac"}, {"replication.quiesce_virt_ms", "ms"},
	{"netsim.bytes_per_commit", "B"}, {"core.errors_per_kcommit", "count"}, {"core.terminals", "count"},
	{"cluster.crashes_fired", "count"}, {"engine.recovery_redo_records", "count"},
	{"virt.tps", "1/s"}, {"virt.p50_ms", "ms"}, {"virt.p99_ms", "ms"}, {"virt.lag_update_ms", "ms"}, {"virt.digest", "hash"},
}

// probeNames are the metrics runProbes reports.
var probeNames = []string{
	"probe.sim.sleep_wake_ns", "probe.sim.sleep_wake_allocs",
	"probe.sim.queue_wait_ns", "probe.sim.queue_wait_allocs",
	"probe.storage.buf_admit_hit_ns", "probe.storage.buf_admit_hit_allocs",
	"probe.storage.buf_admit_evict_ns", "probe.storage.buf_admit_evict_allocs",
	"probe.storage.buf_snapshot_restore_us", "probe.storage.buf_snapshot_restore_allocs",
	"probe.storage.wal_append_sync_ns", "probe.storage.wal_append_sync_allocs",
	"probe.engine.encode_key_ns", "probe.engine.encode_key_allocs",
	"probe.engine.txn_read_commit_ns", "probe.engine.txn_read_commit_allocs",
	"probe.engine.txn_update_commit_ns", "probe.engine.txn_update_commit_allocs",
	"probe.engine.lock_acquire_release_ns", "probe.engine.lock_acquire_release_allocs",
	"probe.engine.apply_batch_ns_per_rec", "probe.engine.apply_batch_allocs_per_rec",
	"probe.node.tx_read_ns", "probe.node.tx_read_allocs",
	"probe.replication.publish_to_applied_ns_per_rec", "probe.replication.publish_to_applied_allocs_per_rec",
	"probe.meter.reservoir_add_ns", "probe.meter.reservoir_quantile_us",
	"probe.check.verdicts_ms_per_kevent",
	"probe.cluster.failover_cell_ms", "virt.failover_f_ms", "virt.failover_r_ms",
	"probe.experiments.cells_par_speedup",
}

// selfNames are the benchmark's measurements of itself.
var selfNames = []string{
	"bench.rounds", "bench.round_ms_p50", "bench.round_ms_hi", "bench.round_hi_pctile", "bench.round_ms_iqr",
	"bench.round_wall_ms_p50", "bench.commits_per_wall_s", "bench.setup_wall_s", "bench.steal_frac", "bench.ref_kernel_ms",
	"bench.gc_cycles_per_round", "bench.gc_cpu_frac", "bench.profile_samples", "bench.trace_overhead_frac",
}

// perLayerNames lists every metric a traced run reports.
func perLayerNames() []string {
	var names []string
	for _, b := range cpuBuckets {
		names = append(names, "host_ns_per_commit."+b)
	}
	names = append(names, "host_ns_per_commit.x_malloc", "host_ns_per_commit.x_handoff")
	for _, l := range allocLayers {
		names = append(names, "allocs_per_commit."+l)
	}
	for _, d := range countMetricDefs {
		names = append(names, d.name)
	}
	names = append(names, probeNames...)
	return append(names, selfNames...)
}

// tracedRun is the per-layer run: one set-up, a short untraced pass as the
// reference, the same rounds again under the CPU profiler with heap sampling
// at memProfileRate, then the verified cells' counters and the probes. Its
// timings are never reported as end-to-end metrics.
func (w workload) tracedRun(seed int64, budget time.Duration) (result, error) {
	var cal calibration
	cal.run(3)
	t0 := time.Now()
	st := w.setup(seed)
	setupWall := time.Since(t0).Seconds()
	var ref, traced pass
	if err := w.runRounds(&ref, st, time.Now().Add(budget*7/20), &cal); err != nil {
		return result{}, err
	}

	oldRate := runtime.MemProfileRate
	runtime.MemProfileRate = memProfileRate
	before := allocsByLayer()
	ledger, err := profileCPU(func() error {
		return w.runRounds(&traced, st, time.Now().Add(budget*9/20), &cal)
	})
	after := allocsByLayer()
	runtime.MemProfileRate = oldRate
	if err != nil {
		return result{}, err
	}
	if traced.digest != ref.digest {
		return result{}, fmt.Errorf("%s: virtual outputs under the profiler differ from the untraced pass (digest %s != %s)", w.name, traced.digest, ref.digest)
	}
	if len(w.gauntlet) == 0 && ledger.ns["check"] != 0 {
		return result{}, fmt.Errorf("%s: guard: %d ns of CPU profile inside internal/check on a workload that must bypass it", w.name, ledger.ns["check"])
	}
	counts, err := w.verify(seed)
	if err != nil {
		return result{}, err
	}

	if ledger.total == 0 {
		return result{}, fmt.Errorf("%s: the CPU profile of %d rounds holds no sample", w.name, len(traced.netMs))
	}
	// The probes run before any time is converted: the run has one
	// calibration, and their kernel runs are part of it.
	m := runProbes(seed, &cal)

	// The profile gives each owner's share of the samples, the clock gives
	// the total: the buckets add up to the profiled rounds' host time, on the
	// same clock as the end-to-end metrics.
	hostNs := traced.perCommit(cal.host(traced.netSec) * 1e9)
	for _, b := range append(append([]string(nil), cpuBuckets...), "x_malloc", "x_handoff") {
		m["host_ns_per_commit."+b] = metric{hostNs * float64(ledger.ns[b]) / float64(ledger.total), "ns"}
	}
	for _, l := range allocLayers {
		m["allocs_per_commit."+l] = metric{traced.perCommit(after[l] - before[l]), "count"}
	}
	w.countMetrics(m, counts, traced)

	sorted := make([]float64, len(ref.netMs))
	for i, ms := range ref.netMs {
		sorted[i] = cal.host(ms)
	}
	sort.Float64s(sorted)
	hi := highPercentile(len(sorted))
	n := float64(len(sorted))
	m["bench.rounds"] = metric{n, "count"}
	m["bench.round_ms_p50"] = metric{median(sorted), "ms"}
	m["bench.round_ms_hi"] = metric{percentile(sorted, hi), "ms"}
	m["bench.round_hi_pctile"] = metric{hi, "%"}
	m["bench.round_ms_iqr"] = metric{percentile(sorted, 75) - percentile(sorted, 25), "ms"}
	m["bench.round_wall_ms_p50"] = metric{median(ref.wallMs), "ms"}
	m["bench.commits_per_wall_s"] = metric{float64(ref.commits) / ref.wallSec, "1/s"}
	m["bench.setup_wall_s"] = metric{setupWall, "s"}
	m["bench.steal_frac"] = metric{(ref.wallSec - ref.netSec) / ref.wallSec, "frac"}
	m["bench.ref_kernel_ms"] = metric{cal.refMs(), "ms"}
	m["bench.gc_cycles_per_round"] = metric{float64(ref.gcCycles) / n, "count"}
	m["bench.gc_cpu_frac"] = metric{ref.gcCPU / max(ref.busyCPU, 1e-9), "frac"}
	m["bench.profile_samples"] = metric{float64(ledger.samples), "count"}
	m["bench.trace_overhead_frac"] = metric{median(traced.netMs)/median(ref.netMs) - 1, "frac"}

	want := perLayerNames()
	if len(m) != len(want) {
		return result{}, fmt.Errorf("%s: traced run produced %d metrics, the ledger lists %d", w.name, len(m), len(want))
	}
	for _, name := range want {
		if _, ok := m[name]; !ok {
			return result{}, fmt.Errorf("%s: traced run did not produce %s", w.name, name)
		}
	}
	fmt.Printf("# %s: traced %d rounds after %d untraced, %d commits, %d profile samples (%.1f s of profile, %.1f s net of steal, %.1f s host), virt_digest %s\n",
		w.name, len(traced.netMs), len(ref.netMs), traced.commits, ledger.samples, float64(ledger.total)/1e9, traced.netSec, cal.host(traced.netSec), traced.digest)
	return result{Correct: true, Attempted: ref.commits + traced.commits + ref.errors + traced.errors, Metrics: m}, nil
}

// countMetrics fills in the counter and virtual-result metrics: from the
// verified cells for an OLTP workload, from the round's own results for the
// gauntlet, whose cells are composed inside the evaluator and expose only
// what CrashResult and ChaosResult carry (the rest reads 0 there).
func (w workload) countMetrics(m map[string]metric, c cellCounts, p pass) {
	last := p.last
	// The first 48 bits of the digest, which a float64 holds exactly: two
	// commits agree on it for a seed exactly when their virtual results do.
	raw, _ := hex.DecodeString(p.digest)
	v := map[string]float64{
		"virt.tps":    last.tps,
		"virt.p50_ms": last.p50ms,
		"virt.p99_ms": last.p99ms,
		"virt.digest": float64(binary.BigEndian.Uint64(raw) >> 16),
	}
	if len(w.gauntlet) > 0 {
		v["core.errors_per_kcommit"] = 1e3 * ratio(last.errors, last.commits)
		v["core.terminals"] = float64(last.terminals)
		v["cluster.crashes_fired"] = float64(last.crashes)
		v["engine.recovery_redo_records"] = float64(last.redo)
	} else {
		per := func(n int64) float64 { return ratio(n, c.commits) }
		v["storage.buf_hit_ratio"] = ratio(c.bufHits, c.bufHits+c.bufMisses)
		v["storage.buf_evictions_per_commit"] = per(c.bufEvictions)
		v["storage.buf_flushes_per_commit"] = per(c.bufFlushes)
		v["storage.wal_records_per_commit"] = per(c.walRecords)
		v["storage.wal_bytes_per_commit"] = per(c.walBytes)
		v["node.page_reads_per_commit"] = per(c.pageReads)
		v["node.page_writes_per_commit"] = per(c.pageWrites)
		v["engine.aborts_per_kcommit"] = 1e3 * per(c.aborts)
		v["engine.lock_waits_per_kcommit"] = 1e3 * per(c.lockWaits)
		v["engine.lock_timeouts_per_kcommit"] = 1e3 * per(c.lockTimeouts)
		v["replication.shipped_per_commit"] = per(c.shipped)
		v["replication.applied_frac_at_stop"] = 1
		if c.shipped > 0 {
			v["replication.applied_frac_at_stop"] = ratio(c.appliedAtStop, c.shipped)
		}
		v["replication.quiesce_virt_ms"] = ms(c.quiesce)
		v["netsim.bytes_per_commit"] = per(c.netBytes)
		v["core.errors_per_kcommit"] = 1e3 * per(c.errors)
		v["core.terminals"] = float64(c.terminals)
		v["virt.lag_update_ms"] = ms(c.lagUpdate)
	}
	for _, d := range countMetricDefs {
		m[d.name] = metric{v[d.name], d.unit}
	}
}
