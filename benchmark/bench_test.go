package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// cannedTraces is `go tool pprof -traces -unit=ns` output cut down to one
// sample per attribution rule.
const cannedTraces = `File: benchmark
Type: cpu
Time: 2026-09-27 16:17:08 UTC
Duration: 10.1s, Total samples = 220000000ns ( 2.18%)
-----------+-------------------------------------------------------
 20000000ns   internal/runtime/maps.(*Map).getWithKeySmall
             runtime.mapaccess2_faststr
             cloudybench/internal/engine.(*LockTable).Acquire
             cloudybench/internal/engine.(*Txn).acquire
             cloudybench/internal/node.(*Tx).GetForUpdate
             cloudybench/internal/core.(*worker).t2OrderPayment
             cloudybench/internal/sim.(*Sim).Go.func1
-----------+-------------------------------------------------------
 30000000ns   runtime.memclrNoHeapPointers
             runtime.mallocgc
             runtime.growslice
             cloudybench/internal/storage.(*Log).Append (inline)
             cloudybench/internal/engine.(*Txn).Commit
             cloudybench/internal/sim.(*Sim).Go.func1
-----------+-------------------------------------------------------
 40000000ns   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
 10000000ns   runtime.futex
             runtime.futexsleep
             runtime.notesleep
             runtime.stopm
             runtime.findRunnable
             runtime.schedule
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
 10000000ns   runtime.usleep
             runtime.sysmon
             runtime.mstart1
             runtime.mstart0
             runtime.mstart
-----------+-------------------------------------------------------
 20000000ns   runtime.futex
             runtime.futexwakeup
             runtime.notewakeup
             runtime.startm
             runtime.wakep
             runtime.ready
             runtime.goready.func1
             runtime.systemstack
             runtime.goready
             runtime.chansend
             runtime.chansend1
             cloudybench/internal/sim.(*Sim).dispatchLocked
             cloudybench/internal/sim.(*Proc).Sleep
             cloudybench/internal/node.(*Node).chargeCPU
-----------+-------------------------------------------------------
 30000000ns   strconv.FormatFloat
             cloudybench/internal/report.F
             cloudybench/internal/experiments.TableV
             main.runProbes
             main.main
             runtime.main
-----------+-------------------------------------------------------
 50000000ns   runtime.mapaccess1_fast64
             main.refKernel
             main.(*calibration).run
             main.workload.runRounds
             main.main
-----------+-------------------------------------------------------
 10000000ns   crypto/sha256.block
             main.roundResult.digest
             main.workload.runRounds
             main.main
`

func TestAttribution(t *testing.T) {
	samples, err := parseTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 9 {
		t.Fatalf("parsed %d samples, want 9", len(samples))
	}
	if got := samples[1].stack[3]; got != "cloudybench/internal/storage.(*Log).Append" {
		t.Errorf("inline marker not stripped: %q", got)
	}
	l := attribute(samples)
	want := map[string]int64{
		"engine":    20e6, // module frame wins over the runtime leaf
		"storage":   30e6, // malloc charged to the layer that allocated
		"rt_gc":     40e6, // GC worker: no module frame
		"rt_sched":  10e6, // idle scheduler
		"rt_other":  10e6, // sysmon
		"sim":       20e6, // handoff done inside the kernel is the kernel's
		"other_pkg": 40e6, // report/experiments, and the benchmark's own code
		"x_malloc":  30e6,
		"x_handoff": 30e6,
	}
	for b, ns := range want {
		if l.ns[b] != ns {
			t.Errorf("bucket %s: %d ns, want %d", b, l.ns[b], ns)
		}
	}
	var sum int64
	for _, b := range cpuBuckets {
		sum += l.ns[b]
	}
	// The reference kernel's 50 ms are the clock's, not the workload's.
	if sum != l.total || l.total != 170e6 || l.samples != 17 {
		t.Errorf("buckets sum to %d, total %d over %d samples, want 170000000 twice over 17", sum, l.total, l.samples)
	}
	if len(l.ns) != len(want) {
		t.Errorf("unexpected buckets: %v", l.ns)
	}
}

func TestParseTracesRejectsOtherUnits(t *testing.T) {
	_, err := parseTraces("-----------+---\n      10ms   runtime.futex\n")
	if err == nil {
		t.Fatal("a sample value without the ns unit must be an error")
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {75, 8}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// The tail percentile needs ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{4, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {1000, 99}} {
		if got := highPercentile(c.n); got != c.want {
			t.Errorf("highPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestDigest(t *testing.T) {
	a := roundResult{virt: "cdb1 tps=64585 p50=80µs p99=1.88ms hit=0.9187740643770214\n"}
	// Pinned: a change to the digest function would silently detach every
	// recorded virt_digest from the code that produced it.
	if got, want := a.digest(), "3790614f9f39e4c5"; got != want {
		t.Errorf("digest of the fixed text = %s, want %s", got, want)
	}
	b := a
	b.virt = strings.Replace(b.virt, "64585", "64586", 1)
	if a.digest() == b.digest() {
		t.Error("different virtual outputs must have different digests")
	}
}

func TestSampleScale(t *testing.T) {
	// An object far larger than the sampling interval is always sampled; one
	// far smaller stands for about rate/size objects.
	if got := sampleScale(1<<20, 4096); math.Abs(got-1) > 1e-9 {
		t.Errorf("scale of a 1 MiB object = %v, want 1", got)
	}
	if got := sampleScale(16, 4096); math.Abs(got-256.5) > 0.1 {
		t.Errorf("scale of a 16 B object = %v, want about 256.5", got)
	}
}

// TestSmoke runs one round of every workload at a quarter of the virtual
// windows with the verified cells and guards on, then repeats the cheapest
// workload and requires the same virtual outputs.
func TestSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := runSmoke(&out, 42); err != nil {
		t.Fatal(err)
	}
	w, _ := findWorkload(workloads(4), "read_cold")
	r, err := w.round(w.setup(42), func() {})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), r.digest()) {
		t.Errorf("read_cold did not reproduce: digest %s not in\n%s", r.digest(), out.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code telling the same story.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the -seconds default is %d", spec.RunSeconds, defaultSeconds)
	}
	ws := workloads(1)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads listed, %d defined", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, the code %q / %q", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if len(spec.EndToEnd) != len(endToEndBounds) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(spec.EndToEnd), len(endToEndBounds))
	}
	units := endToEnd(1, pass{netMs: []float64{1}, netSec: 1, commits: 1}, calibration{netSec: 1, reps: 1})
	for i, e := range endToEndBounds {
		got := spec.EndToEnd[i]
		better := map[bool]string{true: "higher", false: "lower"}[e.higher]
		if got.Name != e.name || got.Bound != e.bound || got.Better != better || got.Unit != units[e.name].Unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %s %s %s %v", i, got, e.name, units[e.name].Unit, better, e.bound)
		}
	}
	names := perLayerNames()
	if len(spec.PerLayer) != len(names) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(spec.PerLayer), len(names))
	}
	for i, n := range names {
		if spec.PerLayer[i].Name != n {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %q, the code %q", i, spec.PerLayer[i].Name, n)
		}
	}
}
