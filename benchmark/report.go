package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// endToEndBounds is the share of the parent's median by which each end-to-end
// metric may get worse before a change counts as a regression. BENCHMARK.json
// carries the same numbers for the driver; TestBenchmarkJSON keeps them equal.
var endToEndBounds = []struct {
	name   string
	higher bool // true when a higher value is better
	bound  float64
}{
	{"setup_s", false, 0.25},
	{"host_us_per_commit_p50", false, 0.25},
	{"commits_per_host_s", true, 0.25},
	{"allocs_per_commit", false, 0.03},
	{"bytes_per_commit", false, 0.04},
	{"peak_rss_mb", false, 0.25},
}

// printManifest writes what a reader needs to place a number: the inputs, the
// code and the machine.
func printManifest(w io.Writer, o options) {
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	var rounds []string
	for _, wl := range workloads(1) {
		rounds = append(rounds, fmt.Sprintf("%s=%d", wl.name, len(wl.oltp)+2*len(wl.gauntlet)))
	}
	fmt.Fprintf(w, "# cloudybench benchmark: seed %d, %d wall s measured per run: %d set-up batches, each followed by rounds\n", o.seed, o.seconds, setupSamples)
	fmt.Fprintf(w, "# git %s, %s %s/%s, nproc %d, GOMAXPROCS %d, GOGC 100, cpu %q\n",
		sha, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel())
	fmt.Fprintf(w, "# cells per round: %s; rounds per run: as many as fit the measured seconds\n", strings.Join(rounds, " "))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printMetrics writes one workload's metrics as a name-sorted table.
func printMetrics(w io.Writer, workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-12s %-48s %16s %s\n", workload, n, strconv.FormatFloat(m[n].Value, 'g', 6, 64), m[n].Unit)
	}
}

// runChild runs one workload's pass in a fresh process of this binary, so
// heap state and peak RSS do not leak between workloads, and returns its
// result line and the virt_digest it printed. With echo, the child's readable
// output (its manifest and table, everything but the result line) is copied
// through.
func runChild(o options, workload string, trace int, echo bool) (res result, digest string, err error) {
	exe, err := os.Executable()
	if err != nil {
		return res, "", err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, "", fmt.Errorf("%s (trace %d): %w", workload, trace, err)
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != nil && echo {
			fmt.Printf("%s\n", last)
		}
		last = append(last[:0], sc.Bytes()...)
		if _, d, ok := strings.Cut(sc.Text(), "virt_digest "); ok {
			digest = d
		}
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, "", fmt.Errorf("%s (trace %d): last line is not a result: %w", workload, trace, err)
	}
	return res, digest, nil
}

// selected returns the workload names and passes the flags ask for.
func selected(o options) (names []string, traces []int, err error) {
	for _, w := range workloads(1) {
		if o.workload == "" || o.workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	traces = []int{0, 1}
	if o.trace >= 0 {
		traces = []int{o.trace}
	}
	return names, traces, nil
}

// runAll runs the selected workloads one child process at a time: the timed
// pass, then the traced pass.
func runAll(o options) error {
	names, traces, err := selected(o)
	if err != nil {
		return err
	}
	for _, n := range names {
		for _, t := range traces {
			if _, _, err := runChild(o, n, t, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// runSelfcheck runs the timed pass of every selected workload twice and
// fails when a metric of the second set is worse than the first by more than
// its bound, or when the two sets disagree on the virtual results.
func runSelfcheck(o options) error {
	names, _, err := selected(o)
	if err != nil {
		return err
	}
	printManifest(os.Stdout, o)
	type run struct {
		result
		digest string
	}
	// The two runs of a workload are back to back, so that they see the
	// machine in the same state as nearly as two runs can.
	runs := [2]map[string]run{{}, {}}
	for _, n := range names {
		for i := range runs {
			res, digest, err := runChild(o, n, 0, false)
			if err != nil {
				return err
			}
			runs[i][n] = run{res, digest}
		}
	}
	fmt.Printf("\n%-12s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	breaches := 0
	for _, n := range names {
		a, b := runs[0][n], runs[1][n]
		// The digest covers every cell's commits and refused requests, so the
		// refused share repeats with it, however many rounds each run held.
		if a.digest != b.digest {
			fmt.Printf("%-12s virt_digest differs: %s then %s  BREACH\n", n, a.digest, b.digest)
			breaches++
		} else {
			fmt.Printf("%-12s virt_digest %s both times\n", n, a.digest)
		}
		for _, e := range endToEndBounds {
			x, y := a.Metrics[e.name].Value, b.Metrics[e.name].Value
			worse := (y - x) / x
			if e.higher {
				worse = (x - y) / x
			}
			flag := ""
			if worse > e.bound {
				flag = "  BREACH"
				breaches++
			}
			fmt.Printf("%-12s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", n, e.name, x, y, worse*100, e.bound*100, flag)
		}
	}
	fmt.Print(`
To claim a gain later: build the parent commit and the change once each
(go build -o <file> ./benchmark in each tree), then run ten pairs with
-workload <name> -trace 0, alternating which binary goes first and giving
pair i the seed i. A gain stands when the change wins nine pairs of ten and
the medians differ by more than the parent's own interquartile range.
`)
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) moved by more than their bound between two runs of the same code", breaches)
	}
	return nil
}
