package lint_test

import (
	"go/format"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudybench/internal/lint"
)

// runFixable loads the package at dir under pkgPath and returns its
// diagnostics under the maporder analyzer (whose rewrites plus the
// allowstale deletion are detlint's machine-applicable set).
func runFixable(t *testing.T, dir, pkgPath string) []lint.Diagnostic {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, pkgPath)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(fixtureCfg(pkgPath), []*lint.Analyzer{lint.MapOrder},
		[]*lint.Package{pkg}, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestFixGoldenRoundTrip applies detlint's machine fixes to the fixgolden
// fixture and pins the result against fixgolden.golden byte-for-byte. The
// output must be gofmt-clean, and a second fix pass must be a no-op —
// both on bytes and on diagnostics.
func TestFixGoldenRoundTrip(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "src", "fixgolden", "fixgolden.go"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	target := filepath.Join(dir, "fixgolden.go")
	if err := os.WriteFile(target, src, 0o644); err != nil {
		t.Fatal(err)
	}

	diags := runFixable(t, dir, "fixgolden")
	fixable := 0
	for _, d := range diags {
		if d.Fix != nil {
			fixable++
		}
	}
	if fixable < 3 {
		t.Fatalf("expected >=3 fixable diagnostics (two loop rewrites + one stale allow), got %d of %d", fixable, len(diags))
	}
	applied, files, err := lint.ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if applied != fixable || len(files) != 1 {
		t.Fatalf("applied %d fixes to %d files; want %d to 1", applied, len(files), fixable)
	}

	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "fixgolden.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if string(got) != string(want) {
		t.Errorf("fixed output diverges from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	formatted, err := format.Source(got)
	if err != nil {
		t.Fatalf("fixed output does not parse: %v", err)
	}
	if string(formatted) != string(got) {
		t.Errorf("fixed output is not gofmt-clean")
	}

	// Idempotence: the rewritten tree is diagnostic-free, so a second -fix
	// changes nothing.
	again := runFixable(t, dir, "fixgolden2")
	if len(again) != 0 {
		t.Errorf("rewritten tree still produces diagnostics: %v", again)
	}
	applied2, _, err := lint.ApplyFixes(again)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if applied2 != 0 || string(after) != string(got) {
		t.Errorf("second fix pass was not a no-op (applied %d)", applied2)
	}
}

// TestFixAddsImportWithoutBlock is the regression test for the
// import-insertion bug: a file whose imports are a single standalone
// statement (no `import (...)` block) must get the slices import after
// the package clause, not before it — the old search found the newline
// preceding `package` and produced unparsable code.
func TestFixAddsImportWithoutBlock(t *testing.T) {
	dir := t.TempDir()
	src := `// Package singleimp has no import block.
package singleimp

import "fmt"

func Dump(totals map[string]int) {
	for name, n := range totals {
		fmt.Println(name, n)
	}
}
`
	target := filepath.Join(dir, "s.go")
	if err := os.WriteFile(target, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := runFixable(t, dir, "singleimp")
	applied, _, err := lint.ApplyFixes(diags)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("applied %d fixes; want 1", applied)
	}
	got, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), `"slices"`) {
		t.Errorf("fixed file lacks the slices import:\n%s", got)
	}
	if again := runFixable(t, dir, "singleimp2"); len(again) != 0 {
		t.Errorf("rewritten tree still produces diagnostics: %v", again)
	}
}

// TestFixSkipsUnsafeShapes pins the preconditions: loops whose rewrite
// could change semantics (body touches the map, non-ordered key) carry no
// Fix even though they are diagnosed.
func TestFixSkipsUnsafeShapes(t *testing.T) {
	dir := t.TempDir()
	src := `package unsafeshapes

import "fmt"

type pair struct{ a, b int }

func mutate(m map[string]int) {
	for k := range m {
		fmt.Println(k)
		delete(m, k)
	}
}

func structKey(m map[pair]int) {
	for k := range m {
		fmt.Println(k)
	}
}
`
	if err := os.WriteFile(filepath.Join(dir, "u.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags := runFixable(t, dir, "unsafeshapes")
	if len(diags) != 2 {
		t.Fatalf("want 2 diagnostics, got %d: %v", len(diags), diags)
	}
	for _, d := range diags {
		if d.Fix != nil {
			t.Errorf("unsafe loop shape at %s:%d still offered a fix", d.Pos.Filename, d.Pos.Line)
		}
	}
}
