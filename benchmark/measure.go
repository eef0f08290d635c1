package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Set-up is timed setupSamples times per run, each sample a batch of
// back-to-back set-ups long enough (setupBatchSec of wall time) that the
// 10 ms ticks of the steal counter are small beside it; setup_s is the median
// sample divided by the batch size. The batches are spread over the run, one
// before each equal share of the timed rounds, so that set-up and rounds see
// the same machine: two and a half seconds at the start of a run can sit
// wholly inside a spell the twenty seconds after them average out.
const (
	setupSamples  = 5
	setupBatchSec = 0.5
)

// pass is one measured sequence of rounds of one workload. Every cell of a
// round is timed in wall time and net of steal, and the reference kernel runs
// after it; the run's calibration turns the times net of steal into host time
// (hosttime.go), which is what the end-to-end metrics use.
type pass struct {
	netMs    []float64 // ms net of steal of each round, in run order
	wallMs   []float64 // wall ms of each round
	netSec   float64   // sums over the rounds
	wallSec  float64
	commits  int64
	errors   int64
	cells    int
	mallocs  uint64 // MemStats.Mallocs delta over the rounds
	bytes    uint64 // MemStats.TotalAlloc delta
	gcCycles uint32
	gcCPU    float64 // runtime/metrics CPU seconds spent in GC
	busyCPU  float64 // total minus idle
	digest   string
	last     roundResult
}

func (p pass) perCommit(v float64) float64 { return v / float64(p.commits) }

// runRounds repeats the workload's round until the deadline and adds what it
// measures to p, which ends up with one round at least. A round is never cut
// short: one more is run while at least half of it (and of its calibration)
// fits, going by the last, so the pass stops at the round boundary nearest the
// deadline. Every round's virtual outputs must equal the pass's first round's.
func (w workload) runRounds(p *pass, st runState, deadline time.Time, cal *calibration) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, busy0 := cpuClasses()
	for len(p.wallMs) == 0 || time.Until(deadline).Seconds() >= p.wallMs[len(p.wallMs)-1]/1e3*1.15/2 {
		var net, wall float64
		t0 := now()
		r, err := w.round(st, func() {
			n, wl := since(t0)
			net, wall = net+n, wall+wl
			cal.after(wl)
			t0 = now()
		})
		if err != nil {
			return err
		}
		if d := r.digest(); p.digest == "" {
			p.digest = d
		} else if d != p.digest {
			return fmt.Errorf("%s: round %d virtual outputs differ from round 0 (digest %s != %s):\n%s",
				w.name, len(p.netMs), d, p.digest, r.virt)
		}
		p.netMs = append(p.netMs, net*1e3)
		p.wallMs = append(p.wallMs, wall*1e3)
		p.netSec += net
		p.wallSec += wall
		p.commits += r.commits
		p.errors += r.errors
		p.cells += r.cells
		p.last = r
	}
	runtime.ReadMemStats(&m1)
	gc1, busy1 := cpuClasses()
	p.mallocs += m1.Mallocs - m0.Mallocs
	p.bytes += m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles += m1.NumGC - m0.NumGC
	p.gcCPU += gc1 - gc0
	p.busyCPU += busy1 - busy0
	return nil
}

// cpuClasses reads the runtime's own CPU accounting: seconds spent in the
// garbage collector and seconds not idle. The runtime refreshes these at GC
// cycle boundaries, so a delta omits the tail since the last cycle.
func cpuClasses() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	for _, x := range s {
		if x.Value.Kind() != metrics.KindFloat64 {
			return 0, 0
		}
	}
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}

// setupBatch times k back-to-back set-ups as one interval and returns the
// seconds net of steal one of them took and the state the last one built.
func (w workload) setupBatch(seed int64, k int, cal *calibration) (netS float64, st runState) {
	runtime.GC()
	t0 := now()
	for j := 0; j < k; j++ {
		st = w.setup(seed)
	}
	n, wall := since(t0)
	cal.after(wall)
	return n / float64(k), st
}

// percentile returns the nearest-rank p-th percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median returns the middle of xs (mean of the two middle values when the
// count is even) without reordering xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n == 0 {
		return 0
	} else if n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// highPercentile picks the highest of p99, p95, p90 and p75 that has at least
// ten of n samples beyond it, so the tail figure is never one outlier; below
// forty samples there is none and it returns 50.
func highPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if n-int(math.Ceil(p/100*float64(n))) >= 10 {
			return p
		}
	}
	return 50
}

// peakRSSMB returns the process's resident-set high-water mark in MiB, or
// the Go runtime's total mapped memory where /proc is not available.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) == 2 && f[1] == "kB" {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the end-to-end metrics of an untraced pass and the
// set-ups before it.
func endToEnd(setupNetS float64, p pass, cal calibration) map[string]metric {
	perRound := float64(p.commits) / float64(len(p.netMs))
	return map[string]metric{
		"setup_s":                {cal.host(setupNetS), "s"},
		"host_us_per_commit_p50": {cal.host(median(p.netMs)) * 1e3 / perRound, "us"},
		"commits_per_host_s":     {float64(p.commits) / cal.host(p.netSec), "1/s"},
		"allocs_per_commit":      {p.perCommit(float64(p.mallocs)), "count"},
		"bytes_per_commit":       {p.perCommit(float64(p.bytes)), "B"},
		"peak_rss_mb":            {peakRSSMB(), "MiB"},
	}
}
