package main

import (
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// Host time is wall time net of steal: the time the machine actually gave
// this virtual machine. The benchmark runs on shared VMs whose hypervisor
// takes a varying share of every wall second away (the steal column of
// /proc/stat), from nothing to half of it. The correction is exact when one
// thread of this process is the only busy thing on the VM, which is why the
// measuring process runs with GOMAXPROCS 1: steal then accrues only while
// that thread is kept waiting. Where /proc/stat has no steal column, host time
// is wall time.

// stamp is one reading of both clocks.
type stamp struct {
	wall  time.Time
	steal float64 // seconds stolen from all CPUs since boot
}

func now() stamp { return stamp{time.Now(), stealSeconds()} }

// since returns host seconds (wall net of steal) and wall seconds elapsed.
func since(s stamp) (host, wall float64) {
	wall = time.Since(s.wall).Seconds()
	return max(wall-(stealSeconds()-s.steal), 0), wall
}

// stealSeconds reads the aggregate steal time from /proc/stat, which counts
// in hundredths of a second (USER_HZ).
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

// Steal is not the whole of a neighbour's cost. When other tenants are busy
// the shared last-level cache and memory system slow this VM's memory
// accesses, and the simulator — map lookups, pointer chasing — is memory
// bound: identical rounds take up to 1.5x longer net of steal in such a spell,
// and the spells last from minutes to hours, so a parent measured in one and a
// change measured in the next differ by more than any bound. So a fixed
// reference kernel, lookups scattered over a map too large for L2, runs
// between the timings of a run, and the run's times are corrected by how far
// the kernel's mean time over the run is from its nominal time.
//
// Neighbours slow the kernel's lookups about twice as much as they slow the
// simulator's mix of work, so the correction applies refSensitivity of the
// kernel's relative slow-down: host = net * (nominal/kernel)^refSensitivity.
// A host second is a second on a machine that runs refKernel in refNominalMs.
// baseline/README.md holds the runs the exponent was fitted to and the runs
// that show what the correction buys.
//
// One factor per run, not one per round: the kernel's time varies by 10-20 %
// from one second to the next, more than a round's does, so a local factor
// adds noise while the mean over a run follows the machine. For the same
// reason the kernel runs after every cell, not every round: many short runs
// spread over the whole run average those swings out, a few long ones do not.

const (
	// refNominalMs fixes the unit. On the machine class the baseline was
	// taken on (2.1 GHz Xeon, go1.24) refKernel takes from 34 ms net of steal
	// on a quiet host to 120 ms beside busy neighbours.
	refNominalMs = 50
	// refSensitivity is the slope of the workloads' log time on the kernel's
	// log time, fitted over eighty runs of the four workloads
	// (baseline/fit.py over baseline/kernel_fit.tsv).
	refSensitivity = 0.56
)

var (
	refMap = func() map[uint64]uint64 {
		m := make(map[uint64]uint64, 1<<16)
		for i := uint64(0); i < 1<<16; i++ {
			m[i*0x9E3779B97F4A7C15] = i
		}
		return m
	}()
	refSink uint64
)

// refKernel does a fixed amount of work: three million lookups scattered over
// a 65536-entry map.
func refKernel() {
	var x uint64
	for i := uint64(0); i < 3_000_000; i++ {
		x += refMap[(i*7919%(1<<16))*0x9E3779B97F4A7C15]
	}
	refSink += x
}

// calibration accumulates the reference-kernel runs of one benchmark run.
type calibration struct {
	netSec float64 // kernel time net of steal
	reps   int
}

// run runs the kernel reps times. An untimed pass over the map comes first,
// so that the kernel's time does not depend on how much of the map the work
// before it left in the cache.
func (c *calibration) run(reps int) {
	for _, v := range refMap {
		refSink += v
	}
	t0 := now()
	for i := 0; i < reps; i++ {
		refKernel()
	}
	net, _ := since(t0)
	c.netSec += net
	c.reps += reps
}

// after runs the kernel after a timing that took wallSec, for about a tenth
// as long.
func (c *calibration) after(wallSec float64) {
	c.run(max(1, int(wallSec*1e3/10/refNominalMs+0.5)))
}

// refMs is the kernel's mean time net of steal so far.
func (c calibration) refMs() float64 { return c.netSec * 1e3 / float64(c.reps) }

// host converts a time net of steal, in any unit, to host time.
func (c calibration) host(net float64) float64 {
	return net * math.Pow(refNominalMs/c.refMs(), refSensitivity)
}
