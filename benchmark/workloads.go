package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
)

// A workload is a fixed list of cells; one round runs every cell once through
// the evaluator functions the experiments use. The cell sizes are virtual
// time, so a round is the same work on every machine and only the host time
// it takes varies.
type workload struct {
	name string
	why  string
	// oltp lists the RunOLTP cells of one round (Seed and Warm are filled in
	// per run). Empty for the gauntlet.
	oltp []evaluator.OLTPConfig
	// gauntlet lists the SUTs each round drives through RunCrash then
	// RunChaos. Empty for the OLTP workloads.
	gauntlet  []cdb.Kind
	crashSpan time.Duration
	chaosSpan time.Duration
	// hitMin/hitMax bound the verified cell's RW buffer hit ratio: the shape
	// guard that keeps "fits the buffer" and "larger than the buffer" true.
	hitMin, hitMax float64
	// noWrites requires zero WAL records and zero shipped records.
	noWrites bool
}

const gauntletClients = 6

// workloads returns the four workloads with every virtual window divided by
// div (1 for measurement, 4 for the smoke test).
func workloads(div int) []workload {
	d := func(t time.Duration) time.Duration { return t / time.Duration(div) }
	ws := []workload{
		{
			name: "oltp_hot",
			why:  "CDB1 15:5:80 mix, 16 clients, SF1 fits the buffer (hit 0.92): engine, sim and node do the work, storage only its hit path; the WarmCache restore path of Figure 5 and Tables V/IX",
			oltp: []evaluator.OLTPConfig{{
				Kind: cdb.CDB1, Mix: core.MixReadWrite, Concurrency: 16, SF: 1, Replicas: 1,
				Warmup: d(500 * time.Millisecond), Measure: d(2 * time.Second),
			}},
			hitMin: 0.75, hitMax: 1,
		},
		{
			name: "read_cold",
			why:  "RDS read-only, 32 clients, SF10 on a 64 MiB buffer (hit 0.22): buffer admit/evict churn and page I/O, no WAL, no replication, almost no engine; the larger-than-cache partner of oltp_hot",
			oltp: []evaluator.OLTPConfig{{
				Kind: cdb.RDS, Mix: core.MixReadOnly, Concurrency: 32, SF: 10, Replicas: evaluator.NoReplicas,
				BufferBytes: 64 << 20,
				Warmup:      d(500 * time.Millisecond), Measure: d(8 * time.Second),
			}},
			hitMin: 0.15, hitMax: 0.6, noWrites: true,
		},
		{
			name: "write_ship",
			why:  "CDB2 then CDB3, insert/update/delete 60:30:10, 32 clients, 2 replicas: WAL append/sync, multi-hop and parallel-lane shipping, replica batch apply, B-tree writes, row locks; the write side",
			oltp: []evaluator.OLTPConfig{
				{Kind: cdb.CDB2, Mix: core.IUDMix(60, 30, 10), Concurrency: 32, SF: 1, Replicas: 2,
					Warmup: d(500 * time.Millisecond), Measure: d(2 * time.Second)},
				{Kind: cdb.CDB3, Mix: core.IUDMix(60, 30, 10), Concurrency: 32, SF: 1, Replicas: 2,
					Warmup: d(500 * time.Millisecond), Measure: d(2 * time.Second)},
			},
			hitMin: 0.5, hitMax: 1,
		},
		{
			name:      "gauntlet",
			why:       "crash and chaos gauntlets on RDS, CDB1, CDB4, every verdict must pass: the only workload running check, chaos, cluster, recovery and the evaluator harness, all of which the OLTP workloads bypass",
			gauntlet:  []cdb.Kind{cdb.RDS, cdb.CDB1, cdb.CDB4},
			crashSpan: d(4 * time.Second),
			chaosSpan: d(2 * time.Second),
		},
	}
	if div > 1 {
		// The hit-ratio guards describe the full windows; a shortened cell
		// is still on the cold ramp of its buffer pool.
		for i := range ws {
			ws[i].hitMin, ws[i].hitMax = 0, 1
		}
	}
	return ws
}

func findWorkload(ws []workload, name string) (workload, bool) {
	for _, w := range ws {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// roundResult is what one round reports. virt is the canonical text of the
// round's virtual outputs; rounds of one run must agree on it byte for byte.
type roundResult struct {
	commits int64 // committed simulated transactions the cells report
	errors  int64 // requests refused while an injected fault is in force (gauntlet cells only)
	cells   int
	virt    string

	// Virtual results and gauntlet counts for the per-layer table.
	tps, p50ms, p99ms float64
	crashes, redo     int64
	terminals         int64
}

func (r roundResult) digest() string {
	sum := sha256.Sum256([]byte(r.virt))
	return hex.EncodeToString(sum[:8])
}

// runState is the per-run state the rounds share: the seed and the warm-up
// snapshots set-up computed.
type runState struct {
	seed int64
	warm *evaluator.WarmCache
}

// setup does what a workload needs before its first timed round. For an OLTP
// workload that is the warm-up phase of every cell, memoized in a WarmCache
// exactly as the experiment sweeps do: a 1 ms measured window forks from the
// snapshot and is discarded (WarmKey excludes Measure, so the rounds hit the
// cache). The gauntlet has no state to carry over; its set-up is one untimed
// chaos cell that grows the heap to working size.
func (w workload) setup(seed int64) runState {
	st := runState{seed: seed, warm: evaluator.NewWarmCache()}
	for _, cfg := range w.oltp {
		cfg.Seed, cfg.Warm, cfg.Measure = seed, st.warm, time.Millisecond
		evaluator.RunOLTP(cfg)
	}
	if len(w.gauntlet) > 0 {
		evaluator.RunChaos(evaluator.ChaosConfig{Kind: cdb.CDB1, Concurrency: gauntletClients, Span: w.chaosSpan, Seed: seed})
	}
	return st
}

// round runs every cell of the workload once, and calls lap after each cell
// so that the caller can time the cells one by one.
func (w workload) round(st runState, lap func()) (roundResult, error) {
	var r roundResult
	var virt strings.Builder
	for _, cfg := range w.oltp {
		cfg.Seed, cfg.Warm = st.seed, st.warm
		res := evaluator.RunOLTP(cfg)
		lap()
		// RunOLTP exposes a rate, not a count. The rate is a bucket count
		// over the measured window, so this product is a whole number: the
		// commits the cell reports, which is what a reader of Figure 5 sees.
		c := int64(math.Round(res.TPS * cfg.Measure.Seconds()))
		if c <= 0 {
			return r, fmt.Errorf("%s: %s cell committed nothing", w.name, cfg.Kind)
		}
		r.commits += c
		r.cells++
		r.tps += res.TPS
		r.p50ms = math.Max(r.p50ms, ms(res.P50))
		r.p99ms = math.Max(r.p99ms, ms(res.P99))
		fmt.Fprintf(&virt, "%s tps=%v p50=%v p99=%v hit=%v\n", cfg.Kind, res.TPS, res.P50, res.P99, res.HitRatio)
	}
	for _, kind := range w.gauntlet {
		cr := evaluator.RunCrash(evaluator.CrashConfig{Kind: kind, Concurrency: gauntletClients, Span: w.crashSpan, Seed: st.seed})
		lap()
		if !cr.Passed() {
			return r, fmt.Errorf("gauntlet: crash cell on %s: %v", kind, cr.Verdicts)
		}
		ch := evaluator.RunChaos(evaluator.ChaosConfig{Kind: kind, Concurrency: gauntletClients, Span: w.chaosSpan, Seed: st.seed})
		lap()
		if !ch.Passed() {
			return r, fmt.Errorf("gauntlet: chaos cell on %s: %v", kind, ch.Verdicts)
		}
		r.commits += cr.Commits + ch.Commits
		r.errors += cr.Errors + ch.Errors
		r.cells += 2
		r.tps += ch.TPS
		r.crashes += int64(len(cr.Crashes))
		r.terminals += cr.Terminals
		fmt.Fprintf(&virt, "%s crash commits=%d errors=%d terminals=%d fenced=%d epoch=%d\n",
			kind, cr.Commits, cr.Errors, cr.Terminals, cr.Fenced, cr.Epoch)
		for _, c := range cr.Crashes {
			if c.Err != "" {
				return r, fmt.Errorf("gauntlet: recovery on %s/%s: %s", kind, c.Target, c.Err)
			}
			r.redo += int64(c.Stats.RedoRecords)
			fmt.Fprintf(&virt, " kill at=%v %s scanned=%d redo=%d undo=%d losers=%d torn=%v\n",
				c.At, c.Target, c.Stats.Records, c.Stats.RedoRecords, c.Stats.UndoRecords, c.Stats.Losers, c.Stats.TornDetected)
		}
		fmt.Fprintf(&virt, "%s chaos commits=%d aborts=%d errors=%d tps=%v faults=%d quiesce=%v\n",
			kind, ch.Commits, ch.Aborts, ch.Errors, ch.TPS, ch.InjectedFaults, ch.QuiesceTime)
		for _, v := range append(cr.Verdicts, ch.Verdicts...) {
			fmt.Fprintf(&virt, " %s checked=%d\n", v.Name, v.Checked)
		}
	}
	r.virt = virt.String()
	return r, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
