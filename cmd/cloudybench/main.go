// Command cloudybench runs CloudyBench experiments against the simulated
// cloud-native databases and prints paper-style tables and figures.
//
// Usage:
//
//	cloudybench list
//	cloudybench run <experiment-id>... [-scale quick|paper|bench] [-o results.txt]
//	cloudybench run all [-scale quick|paper|bench]
//	cloudybench custom -props FILE
//	cloudybench dataset [-sf 10] [-seed 42] [-sample 5]
//	cloudybench cost [-vcores 4] [-mem 16] [-net 10] [-fabric tcp|rdma|local] ...
//
// Experiment ids map to the paper's artifacts: f5 t5 f6 t6 t7 t8 f7 lag t9
// f8 f9, plus the testbed extensions: ablations chaos oltp partition suites
// (see `cloudybench list`). Two small commands ride along: dataset prints
// the scaling model and sample rows of a scale factor, and cost prices a
// resource package at the paper's Table III unit costs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cloudybench/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cloudybench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return nil
	}
	switch args[0] {
	case "list":
		return list()
	case "run":
		return runExperiments(args[1:])
	case "custom":
		return runCustom(args[1:])
	case "dataset":
		return runDataset(args[1:])
	case "cost":
		return runCost(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		return fmt.Errorf("unknown command %q (try: list, run)", args[0])
	}
}

// startProfiles starts a CPU profile (if cpuFile is set) and returns a stop
// function that finishes it and, if memFile is set, writes a post-GC heap
// profile. Inspect either with `go tool pprof`.
func startProfiles(cpuFile, memFile string) (func(), error) {
	stopCPU := func() {}
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		stopCPU()
		if memFile == "" {
			return
		}
		f, err := os.Create(memFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cloudybench: memprofile:", err)
			return
		}
		runtime.GC() // report live allocations, not garbage awaiting collection
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cloudybench: memprofile:", err)
		}
		f.Close()
	}, nil
}

// parseFlags parses args into fs and rejects what is left over: parsing
// stops at the first non-flag argument, which would otherwise be dropped.
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("%s: unexpected arguments after flags: %q", fs.Name(), fs.Args())
	}
	return nil
}

func usage() {
	fmt.Println(`cloudybench — a testbed for comprehensive evaluation of cloud-native databases

Commands:
  list                     show all experiments
  run <id>... [flags]      run experiments (or "run all")
  custom -props FILE       run a user-defined elasticity pattern from a props file
  dataset [flags]          dataset scaling model and sample rows
                           (-sf N, -seed N, -sample N rows per table)
  cost [flags]             resource-unit-cost calculator (Table III prices):
                           -vcores -mem -storage per node, -iops -net per
                           cluster, -fabric tcp|rdma|local, -hours, -nodes

Flags for run:
  -scale quick|paper|bench experiment scale (default quick)
  -o FILE                  also write the report to FILE
  -trace DIR               write JSONL spans + Prometheus snapshot to DIR
                           (trace-aware experiments, e.g. "oltp")
  -artifacts DIR           write CSV/Markdown artifact files to DIR
                           (artifact-emitting experiments, e.g. "soak")
  -parallel N              fan experiment cells out over N cores
                           (default 0 = all cores; 1 = sequential;
                           the report is byte-identical either way)
  -cpuprofile FILE         write a CPU profile of the run to FILE
  -memprofile FILE         write a post-GC heap profile at exit to FILE

Experiment ids correspond to the paper's tables and figures.`)
}

func runCustom(args []string) error {
	fs := flag.NewFlagSet("custom", flag.ContinueOnError)
	propsFile := fs.String("props", "", "props file with elastic_testTime and *_con keys")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *propsFile == "" {
		return fmt.Errorf("custom: -props FILE required")
	}
	data, err := os.ReadFile(*propsFile)
	if err != nil {
		return err
	}
	out, err := experiments.RunCustomElasticity(string(data))
	if err != nil {
		return err
	}
	fmt.Print(out)
	return nil
}

func list() error {
	fmt.Println("Experiments:")
	for _, id := range experiments.IDs() {
		desc, _ := experiments.Describe(id)
		fmt.Printf("  %-4s %s\n", id, desc)
	}
	return nil
}

func runExperiments(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	scaleName := fs.String("scale", "quick", "experiment scale: quick, paper, or bench")
	outFile := fs.String("o", "", "also write the report to this file")
	traceDir := fs.String("trace", "", "write JSONL trace spans and a Prometheus metrics snapshot to this directory (trace-aware experiments)")
	artifactDir := fs.String("artifacts", "", "write CSV/Markdown artifact files to this directory (artifact-emitting experiments, e.g. soak)")
	parallel := fs.Int("parallel", 0, "experiment cells run on this many cores (0 = all cores, 1 = sequential); output is identical either way")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a post-GC heap profile at exit to this file")

	// Accept ids before flags: split args into ids and flag-ish tail.
	var ids []string
	rest := args
	for len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		ids = append(ids, rest[0])
		rest = rest[1:]
	}
	if err := parseFlags(fs, rest); err != nil {
		return err
	}
	if len(ids) == 0 {
		return fmt.Errorf("run: no experiment ids given (try `cloudybench list`)")
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		if _, ok := experiments.Describe(id); !ok {
			return fmt.Errorf("unknown experiment %q (try `cloudybench list`)", id)
		}
	}
	sc, ok := experiments.ScaleByName(*scaleName)
	if !ok {
		return fmt.Errorf("unknown scale %q (quick, paper, or bench)", *scaleName)
	}
	// The output directories exist before anything runs: one that cannot
	// be created fails the command, not the report.
	for _, dir := range []string{*traceDir, *artifactDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("creating %s: %w", dir, err)
		}
	}
	sc.TraceDir = *traceDir
	sc.ArtifactDir = *artifactDir
	experiments.SetParallelism(*parallel)
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	// One session for the invocation: Table IX reads the Figure 6, Table VII
	// and Table VIII cells the other ids already ran.
	sess := experiments.NewSession(sc)
	var out strings.Builder
	for _, id := range ids {
		desc, _ := experiments.Describe(id)
		fmt.Fprintf(os.Stderr, "== running %s (%s) at scale %s...\n", id, desc, sc.Name)
		start := time.Now()
		text, err := sess.Run(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "== %s done in %s\n", id, time.Since(start).Round(time.Millisecond))
		out.WriteString(text)
		out.WriteString("\n")
	}
	fmt.Print(out.String())
	if *outFile != "" {
		if err := os.WriteFile(*outFile, []byte(out.String()), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", *outFile, err)
		}
		fmt.Fprintf(os.Stderr, "report written to %s\n", *outFile)
	}
	return nil
}
