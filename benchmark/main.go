// Command benchmark measures the CloudyBench simulator from outside: four
// workloads of whole evaluator cells, host-time end-to-end metrics with
// profiling off, and a per-layer ledger from a separate traced pass. See
// README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the wall time one run
// spends in set-up batches, timed rounds and their calibration.
const defaultSeconds = 20

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
}

func main() {
	var o options
	var selfcheck, smoke bool
	flag.StringVar(&o.workload, "workload", "", "run one workload: oltp_hot, read_cold, write_ship or gauntlet (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 42, "seed for data generation and client streams")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "wall seconds one run measures for (set-up batches and timed rounds)")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, profiling off; 1: per-layer metrics from the traced pass (default: both)")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the timed pass twice and compare every end-to-end metric against its bound")
	flag.BoolVar(&smoke, "smoke", false, "one round per workload at a quarter of the virtual windows, guards on, no timing")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds < 1 || o.trace < -1 || o.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	// Pin what the Go runtime would otherwise take from the environment. One
	// P, because host time is defined for one busy thread (hosttime.go) and a
	// simulation has exactly one runnable process at any instant.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)

	var err error
	switch {
	case smoke:
		err = runSmoke(os.Stdout, o.seed)
	case selfcheck:
		err = runSelfcheck(o)
	case o.workload != "" && o.trace >= 0:
		err = runLeaf(o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the last line of a single-workload run. Attempted counts the
// requests of the measured rounds: commits plus the requests the gauntlet's
// databases refuse while an injected fault is in force. Those refusals are the
// modelled outcome (part of virt_digest, core.errors_per_kcommit in the traced
// pass), not failures of the workload. Anything that is wrong ends the run
// with an error instead of a result, so Failed stays 0.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLeaf measures one workload in this process and prints the manifest, a
// readable table and, as the last line, the result object.
func runLeaf(o options) error {
	w, ok := findWorkload(workloads(1), o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	printManifest(os.Stdout, o)
	budget := time.Duration(o.seconds) * time.Second
	var res result
	var err error
	if o.trace == 1 {
		res, err = w.tracedRun(o.seed, budget)
	} else {
		res, err = w.timedRun(o.seed, budget)
	}
	if err != nil {
		return err
	}
	printMetrics(os.Stdout, w.name, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// timedRun is the untraced run: set-up batches and timed rounds in turn,
// then the output check. The verified cell runs last so that its history,
// which no experiment keeps, does not set the peak memory the run reports.
func (w workload) timedRun(seed int64, budget time.Duration) (result, error) {
	var cal calibration
	cal.run(3)
	// An untimed first set-up sizes the batches.
	t0 := time.Now()
	st := w.setup(seed)
	k := max(1, int(math.Ceil(setupBatchSec/time.Since(t0).Seconds())))
	var p pass
	setups := make([]float64, setupSamples)
	start := time.Now()
	for i := range setups {
		st = runState{} // drop the previous snapshots before building the next
		setups[i], st = w.setupBatch(seed, k, &cal)
		if err := w.runRounds(&p, st, start.Add(budget*time.Duration(i+1)/setupSamples), &cal); err != nil {
			return result{}, err
		}
	}
	m := endToEnd(median(setups), p, cal)
	if _, err := w.verify(seed); err != nil {
		return result{}, err
	}
	fmt.Printf("# %s: %d rounds, %d cells, %d commits, %d requests refused under injected faults, virt_digest %s\n",
		w.name, len(p.netMs), p.cells, p.commits, p.errors, p.digest)
	// The same throughput on the three clocks, so that what host time
	// corrects for can be read off every run (baseline/README.md).
	c := float64(p.commits)
	fmt.Printf("# %s: commits per second: %.6g wall, %.6g net of steal, %.6g host (%.2f s, %.2f s, %.2f s; reference kernel %.1f ms over %d runs)\n",
		w.name, c/p.wallSec, c/p.netSec, c/cal.host(p.netSec), p.wallSec, p.netSec, cal.host(p.netSec), cal.refMs(), cal.reps)
	return result{Correct: true, Attempted: p.commits + p.errors, Metrics: m}, nil
}

// runSmoke runs one round of every workload at a quarter of the virtual
// windows, then the verified cells and guards: the benchmark's own tier-1
// test, which keeps it compiling and its workloads passing without timing
// anything.
func runSmoke(out io.Writer, seed int64) error {
	for _, w := range workloads(4) {
		r, err := w.round(w.setup(seed), func() {})
		if err != nil {
			return err
		}
		if _, err := w.verify(seed); err != nil {
			return err
		}
		fmt.Fprintf(out, "smoke %-10s ok: %d cells, %d commits, virt_digest %s\n", w.name, r.cells, r.commits, r.digest())
	}
	return nil
}
