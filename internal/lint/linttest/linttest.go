// Package linttest runs detlint analyzers over fixture packages and checks
// their diagnostics against // want comments — the same convention as
// golang.org/x/tools/go/analysis/analysistest, reimplemented on the
// repo's dependency-free analysis framework.
//
// A fixture line that should trigger a diagnostic carries a trailing
// comment with one quoted regexp per expected diagnostic:
//
//	time.Sleep(time.Second) // want `time\.Sleep reads the wall clock`
//
// Lines with no want comment must produce no diagnostics. Suppressed sites
// (//detlint:allow) therefore test as negatives simply by carrying no want.
package linttest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"cloudybench/internal/lint"
)

var wantRe = regexp.MustCompile("//\\s*want\\s+((?:(?:`[^`]*`|\"[^\"]*\")\\s*)+)$")
var wantArgRe = regexp.MustCompile("`[^`]*`|\"[^\"]*\"")

// Run loads the fixture package at testdata/src/<dir> relative to the
// caller's package directory, applies the analyzers under the given
// config, and reports any mismatch between produced diagnostics and the
// fixtures' want comments as test errors.
func Run(t *testing.T, dir string, cfg *lint.Config, analyzers ...*lint.Analyzer) {
	t.Helper()
	RunWith(t, dir, cfg, lint.Options{}, nil, analyzers...)
}

// RunWith is Run with explicit runner options and sibling fixture packages:
// each dir in deps is loaded (in order, under its own name as import path)
// before the target fixture, so the target can import it and the
// interprocedural summaries see the whole tower. The summary universe is
// everything the loader has touched; opts.Universe is overwritten.
func RunWith(t *testing.T, dir string, cfg *lint.Config, opts lint.Options, deps []string, analyzers ...*lint.Analyzer) {
	t.Helper()

	moduleRoot, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(moduleRoot)
	if err != nil {
		t.Fatal(err)
	}
	// Fixture dirs load under absolute paths so positions compare equal
	// with diagnostics that carry absolute filenames (hotalloc joins the
	// compiler's module-relative output onto ModuleRoot).
	absFixture := func(name string) string {
		p, err := filepath.Abs(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, dep := range deps {
		if _, err := loader.LoadDir(absFixture(dep), dep); err != nil {
			t.Fatalf("loading fixture dependency %s: %v", dep, err)
		}
	}
	pkg, err := loader.LoadDir(absFixture(dir), dir)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	opts.Universe = loader.Loaded()
	if opts.HotAlloc && opts.ModuleRoot == "" {
		opts.ModuleRoot = moduleRoot
	}
	diags, err := lint.Run(cfg, analyzers, []*lint.Package{pkg}, opts)
	if err != nil {
		t.Fatalf("running analyzers over %s: %v", dir, err)
	}

	wants := collectWants(t, pkg.Fset, pkg)
	matched := make([]bool, len(wants))

	for _, d := range diags {
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("no diagnostic at %s:%d matching %q", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

func collectWants(t *testing.T, fset *token.FileSet, pkg *lint.Package) []want {
	t.Helper()
	var out []want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, arg := range wantArgRe.FindAllString(m[1], -1) {
					pat := strings.Trim(arg, "`\"")
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// findModuleRoot walks up from the working directory to the go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("linttest: no go.mod above working directory")
		}
		dir = parent
	}
}
