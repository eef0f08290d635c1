// Command detlint mechanically enforces the testbed's determinism
// contract: seven rules (wallclock, globalrand, maporder, rawgo,
// floatfold, vtblock, allowstale — plus hotalloc under -hotalloc) over
// the module's deterministic packages, with interprocedural hazard
// propagation so a violation buried N helpers deep is reported at the
// boundary where it breaks the contract. See DESIGN.md "The determinism
// contract" for the rules and the suppression syntax.
//
// Usage:
//
//	go run ./cmd/detlint ./...
//	go run ./cmd/detlint -hotalloc ./...   # also enforce //detlint:hotpath
//	go run ./cmd/detlint -fix ./...        # apply machine-applicable fixes
//	go run ./cmd/detlint -json ./...       # diagnostics as JSON lines
//
// Exit status is 0 when the tree is clean, 1 when violations are found,
// and 2 on load/type-check errors — including patterns that match no
// packages, so a typo'd CI invocation cannot pass vacuously. CI runs it
// as a hard-fail step.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cloudybench/internal/lint"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is main with its seams exposed: argv in, streams out, exit code
// returned — so the regression tests can drive the command without forking.
func realMain(argv []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("detlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		rules    = fs.Bool("rules", false, "print the determinism rules and exit")
		fix      = fs.Bool("fix", false, "apply machine-applicable fixes, then re-report what remains")
		jsonOut  = fs.Bool("json", false, "emit diagnostics as JSON lines on stdout")
		hotalloc = fs.Bool("hotalloc", false, "enforce //detlint:hotpath via the compiler's escape analysis (runs go build)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: detlint [-rules] [-fix] [-json] [-hotalloc] [packages]\n\n")
		fmt.Fprintf(stderr, "Enforces the determinism contract over module packages (default ./...).\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *rules {
		for _, a := range lint.AllRules() {
			fmt.Fprintf(stdout, "%-10s  %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := lint.FindModuleRoot()
	if err != nil {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}

	opts := lint.Options{
		Universe:   loader.Loaded(),
		HotAlloc:   *hotalloc,
		ModuleRoot: root,
	}
	diags, err := lint.Run(lint.DefaultConfig(), analyzers, pkgs, opts)
	if err != nil {
		fmt.Fprintln(stderr, "detlint:", err)
		return 2
	}

	if *fix {
		applied, files, err := lint.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(stderr, "detlint:", err)
			return 2
		}
		for _, f := range files {
			if rel, rerr := filepath.Rel(root, f); rerr == nil {
				f = rel
			}
			fmt.Fprintf(stdout, "detlint: fixed %s\n", f)
		}
		if applied > 0 {
			// Re-analyze the rewritten tree: what survives is what still
			// needs a human (and fixed files must come back clean).
			fresh, err := lint.NewLoader(root)
			if err != nil {
				fmt.Fprintln(stderr, "detlint:", err)
				return 2
			}
			pkgs, err = fresh.Load(patterns...)
			if err != nil {
				fmt.Fprintln(stderr, "detlint:", err)
				return 2
			}
			opts.Universe = fresh.Loaded()
			diags, err = lint.Run(lint.DefaultConfig(), analyzers, pkgs, opts)
			if err != nil {
				fmt.Fprintln(stderr, "detlint:", err)
				return 2
			}
		}
	}

	enc := json.NewEncoder(stdout)
	for _, d := range diags {
		if rel, err := filepath.Rel(root, d.Pos.Filename); err == nil {
			d.Pos.Filename = rel
		}
		if *jsonOut {
			if err := enc.Encode(jsonDiag{
				File:    d.Pos.Filename,
				Line:    d.Pos.Line,
				Column:  d.Pos.Column,
				Rule:    d.Analyzer,
				Message: d.Message,
				Fixable: d.Fix != nil,
			}); err != nil {
				fmt.Fprintln(stderr, "detlint:", err)
				return 2
			}
			continue
		}
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "detlint: %d violation(s) in %d package(s) checked\n", len(diags), len(pkgs))
		return 1
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "detlint: CLEAN (%d packages)\n", len(pkgs))
	}
	return 0
}

// jsonDiag is the -json line format, one object per diagnostic.
type jsonDiag struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Column  int    `json:"column"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
	Fixable bool   `json:"fixable"`
}
