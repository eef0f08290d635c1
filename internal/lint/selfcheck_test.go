package lint_test

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"

	"cloudybench/internal/lint"
)

// TestDetlintSelfCheck is the contract's anchor: the determinism suite
// must run clean over the whole module — exactly what CI's hard-fail
// `go run ./cmd/detlint ./...` step enforces. A failure here means either
// a real determinism hazard slipped in or an exception lost its
// //detlint:allow comment.
func TestDetlintSelfCheck(t *testing.T) {
	loader := sharedLoader(t)
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; the module walk looks broken", len(pkgs))
	}
	diags, err := lint.Run(lint.DefaultConfig(), lint.Analyzers(), pkgs, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestDefaultConfigClassifiesEveryPackage keeps the contract's package list
// in step with the tree: a package under internal/ that no entry matches
// (a new subpackage, say) escapes every rule, and an entry naming a deleted
// package is dead weight. The linter itself is the one exemption.
func TestDefaultConfigClassifiesEveryPackage(t *testing.T) {
	cfg := lint.DefaultConfig()
	root := filepath.Join("..", "..") // module root, from internal/lint
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.Name() == "testdata" || rel == "internal/lint" {
			return filepath.SkipDir
		}
		srcs, err := filepath.Glob(filepath.Join(p, "*.go"))
		if err != nil {
			return err
		}
		for _, src := range srcs {
			if !strings.HasSuffix(src, "_test.go") {
				if pkg := path.Join("cloudybench", rel); !cfg.IsDeterministic(pkg) {
					t.Errorf("%s is not in DefaultConfig().Deterministic", pkg)
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range cfg.Deterministic {
		if strings.HasSuffix(entry, "/...") {
			continue
		}
		dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(entry, "cloudybench/")))
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Errorf("DefaultConfig().Deterministic entry %s names no directory", entry)
		}
	}
}

// TestDetlintFlagsFixtures asserts the suite still has teeth: run
// CLI-style over each analyzer's fixture package (which the ./... walk
// skips, but which the config's testdata entry marks deterministic), every
// one must fail with at least one diagnostic from its own analyzer.
func TestDetlintFlagsFixtures(t *testing.T) {
	loader := sharedLoader(t)
	// vtblock's fixture declares its own Proc type, so its module path must
	// be appended to ProcTypes; the chain fixture is absent because its bare
	// "chainhelper" import only resolves under linttest's sibling loading.
	vtCfg := lint.DefaultConfig()
	vtCfg.ProcTypes = append(vtCfg.ProcTypes, "cloudybench/internal/lint/testdata/src/vtblock.Proc")
	cases := []struct {
		rule string
		cfg  *lint.Config
	}{
		{"wallclock", lint.DefaultConfig()},
		{"globalrand", lint.DefaultConfig()},
		{"maporder", lint.DefaultConfig()},
		{"rawgo", lint.DefaultConfig()},
		{"floatfold", lint.DefaultConfig()},
		{"vtblock", vtCfg},
		{"allowstale", lint.DefaultConfig()},
	}
	for _, tc := range cases {
		pkgs, err := loader.Load("./internal/lint/testdata/src/" + tc.rule)
		if err != nil {
			t.Fatalf("%s: %v", tc.rule, err)
		}
		diags, err := lint.Run(tc.cfg, lint.Analyzers(), pkgs, lint.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.rule, err)
		}
		found := false
		for _, d := range diags {
			if d.Analyzer == tc.rule {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fixture %s produced no %s diagnostics under the default config", tc.rule, tc.rule)
		}
	}
}

// TestDiagnosticFormat pins the vet-style rendering the CI step greps.
func TestDiagnosticFormat(t *testing.T) {
	loader := sharedLoader(t)
	pkgs, err := loader.Load("./internal/lint/testdata/src/wallclock")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(lint.DefaultConfig(), lint.Analyzers(), pkgs, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("expected diagnostics")
	}
	s := diags[0].String()
	if !strings.Contains(s, "wallclock.go:") || !strings.Contains(s, ": wallclock: ") {
		t.Errorf("diagnostic format %q lost the file:line: analyzer: message shape", s)
	}
}
