package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
)

// cpuBuckets are the owners a CPU-profile sample can have. The first group is
// the internal/ packages by name, other_pkg is any other code of this module
// (the benchmark's own included), and the rt_ buckets take samples whose
// stack has no module frame at all.
var cpuBuckets = []string{
	"sim", "node", "storage", "engine", "replication", "netsim", "cluster", "cdb",
	"core", "meter", "obs", "rng", "check", "chaos", "evaluator",
	"other_pkg", "rt_gc", "rt_sched", "rt_other",
}

// allocLayers are the owners an allocation can have.
var allocLayers = []string{
	"sim", "node", "storage", "engine", "replication", "netsim", "cluster", "cdb",
	"core", "meter", "obs", "check", "evaluator", "other",
}

// moduleLayer reports whether fn is a function of this module and, if so,
// which internal package it belongs to ("" for packages outside internal/).
func moduleLayer(fn string) (layer string, inModule bool) {
	if rest, ok := strings.CutPrefix(fn, "cloudybench/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i], true
		}
		return rest, true
	}
	return "", strings.HasPrefix(fn, "cloudybench/") || strings.HasPrefix(fn, "main.")
}

func hasAnyPrefix(fn string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

var (
	gcFuncs = []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.scanobject", "runtime.markroot",
		"runtime.sweepone", "runtime.greyobject", "runtime.(*gcWork)", "runtime.(*sweepLocked)", "runtime.(*mspan).sweep",
	}
	schedFuncs = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.goschedImpl", "runtime.gopreempt_m",
		"runtime.stopm", "runtime.startm", "runtime.wakep", "runtime.futex", "runtime.notesleep", "runtime.notewakeup",
		"runtime.runq", "runtime.stealWork", "runtime.resetspinning", "runtime.execute", "runtime.ready", "runtime.injectglist",
	}
	handoffFuncs = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.gopark", "runtime.goready", "runtime.park_m", "runtime.futex",
	}
)

// pick returns name when owners lists it and otherwise the catch-all owner,
// which is the last entry.
func pick(owners []string, name string) string {
	for _, o := range owners {
		if o == name {
			return name
		}
	}
	return owners[len(owners)-1]
}

// cpuBucket names the owner of one sample. stack is leaf first. The innermost
// frame of this module wins, so runtime work done for a layer (a map access, a
// malloc, a GC assist) is charged to that layer.
func cpuBucket(stack []string) string {
	for _, fn := range stack {
		if layer, ok := moduleLayer(fn); ok {
			return pick(cpuBuckets[:len(cpuBuckets)-3], layer) // up to other_pkg
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, gcFuncs) {
			return "rt_gc"
		}
	}
	for _, fn := range stack {
		if hasAnyPrefix(fn, schedFuncs) {
			return "rt_sched"
		}
	}
	return "rt_other"
}

type cpuSample struct {
	ns    int64
	stack []string // leaf first
}

// parseTraces reads the text `go tool pprof -traces -unit=ns` prints: blocks
// separated by dashed lines, the first line of a block carrying the sample
// value and the leaf, every further line one caller.
func parseTraces(text string) ([]cpuSample, error) {
	var out []cpuSample
	var cur *cpuSample
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(nil, 1<<20)
	started := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			started, cur = true, nil
			continue
		}
		if !started || strings.TrimSpace(line) == "" {
			continue
		}
		f := strings.Fields(line)
		if cur == nil {
			v, ok := strings.CutSuffix(f[0], "ns")
			ns, err := strconv.ParseInt(v, 10, 64)
			if !ok || err != nil || len(f) < 2 {
				return nil, fmt.Errorf("pprof -traces: cannot read sample line %q", line)
			}
			out = append(out, cpuSample{ns: ns})
			cur = &out[len(out)-1]
			f = f[1:]
		}
		// A frame is a function name, which may contain spaces inside type
		// arguments, followed by "(inline)" when it was inlined.
		if f[len(f)-1] == "(inline)" {
			f = f[:len(f)-1]
		}
		cur.stack = append(cur.stack, strings.Join(f, " "))
	}
	return out, sc.Err()
}

// cpuLedger sums sample time per bucket, plus the two overlapping views.
type cpuLedger struct {
	ns      map[string]int64
	total   int64
	samples int // total over the profiler's 10 ms period (pprof merges equal stacks)
}

// attribute leaves out the samples of the reference kernel, which runs
// between the rounds under the profiler but is the clock, not the workload.
func attribute(samples []cpuSample) cpuLedger {
	l := cpuLedger{ns: map[string]int64{}}
	for _, s := range samples {
		if slices.Contains(s.stack, "main.refKernel") {
			continue
		}
		l.ns[cpuBucket(s.stack)] += s.ns
		l.total += s.ns
		malloc, handoff := false, false
		for _, fn := range s.stack {
			malloc = malloc || strings.HasPrefix(fn, "runtime.mallocgc")
			handoff = handoff || hasAnyPrefix(fn, handoffFuncs)
		}
		if malloc {
			l.ns["x_malloc"] += s.ns
		}
		if handoff {
			l.ns["x_handoff"] += s.ns
		}
	}
	l.samples = int(l.total / 10e6) // StartCPUProfile samples at 100 Hz
	return l
}

// profileCPU runs fn under the CPU profiler and resolves the samples with
// `go tool pprof -traces`. The profile is held in a file under .bench_build
// in the working directory for as long as pprof needs it.
func profileCPU(fn func() error) (cpuLedger, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return cpuLedger{}, err
	}
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return cpuLedger{}, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return cpuLedger{}, err
	}
	err = fn()
	pprof.StopCPUProfile()
	if err != nil {
		return cpuLedger{}, err
	}
	if err := f.Close(); err != nil {
		return cpuLedger{}, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", f.Name())
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return cpuLedger{}, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	samples, err := parseTraces(string(out))
	if err != nil {
		return cpuLedger{}, err
	}
	return attribute(samples), nil
}

// memProfileRate is the heap sampling interval of the traced pass, in bytes.
const memProfileRate = 4096

// allocSnapshot is the allocation profile at one instant: estimated objects
// allocated so far per owning layer.
type allocSnapshot map[string]float64

// allocsByLayer reads the runtime's allocation profile and charges every
// sampled allocation site to the innermost frame of this module on its stack.
// Counts are scaled from samples to estimated objects the way pprof does.
func allocsByLayer() allocSnapshot {
	runtime.GC() // the profile is published at the end of a GC cycle
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := allocSnapshot{}
	for i := range recs {
		r := &recs[i]
		if r.AllocObjects == 0 {
			continue
		}
		layer := "other"
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if l, ok := moduleLayer(fr.Function); ok {
				layer = pick(allocLayers, l)
				break
			}
			if !more {
				break
			}
		}
		out[layer] += float64(r.AllocObjects) * sampleScale(float64(r.AllocBytes)/float64(r.AllocObjects), memProfileRate)
	}
	return out
}

// sampleScale is the number of allocations one heap-profile sample stands
// for: sampling is a Poisson process with mean interval rate bytes, so an
// object of the given size is sampled with probability 1 - exp(-size/rate).
func sampleScale(size float64, rate int) float64 {
	if rate <= 1 || size <= 0 {
		return 1
	}
	return 1 / (1 - math.Exp(-size/float64(rate)))
}
