package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs realMain with stdout/stderr captured to temp files.
func capture(t *testing.T, argv ...string) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "err")
	if err != nil {
		t.Fatal(err)
	}
	code = realMain(argv, outF, errF)
	outB, _ := os.ReadFile(outF.Name())
	errB, _ := os.ReadFile(errF.Name())
	return code, string(outB), string(errB)
}

// TestEmptyPatternFailsLoudly is the regression test for the vacuous-pass
// bug: a pattern that matches no packages must exit 2 with a clear
// message, never report CLEAN.
func TestEmptyPatternFailsLoudly(t *testing.T) {
	code, stdout, stderr := capture(t, "./internal/experiments/testdata/...") // goldens only, no Go files
	if code != 2 {
		t.Fatalf("exit %d for empty match; want 2\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "matched no packages") {
		t.Errorf("stderr %q does not explain the empty match", stderr)
	}
	if strings.Contains(stdout, "CLEAN") {
		t.Errorf("stdout %q claims CLEAN on an empty match", stdout)
	}
}

// TestNonexistentDirFails pins the explicit-directory variant of the same
// bug class.
func TestNonexistentDirFails(t *testing.T) {
	code, _, stderr := capture(t, "./internal/no/such/dir")
	if code != 2 {
		t.Fatalf("exit %d for missing dir; want 2 (stderr: %s)", code, stderr)
	}
}

// TestRulesListsAllRules asserts -rules covers the runner-driven rules
// (hotalloc, allowstale), not just the per-package analyzers.
func TestRulesListsAllRules(t *testing.T) {
	code, stdout, _ := capture(t, "-rules")
	if code != 0 {
		t.Fatalf("-rules exited %d", code)
	}
	for _, rule := range []string{"wallclock", "globalrand", "maporder", "rawgo", "floatfold", "vtblock", "hotalloc", "allowstale"} {
		if !strings.Contains(stdout, rule) {
			t.Errorf("-rules output lacks %s", rule)
		}
	}
}

// TestCleanPackageJSON runs a real (small) module package through -json
// and checks the contract: clean tree → exit 0, no output lines.
func TestCleanPackageJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the stdlib from source")
	}
	code, stdout, stderr := capture(t, "-json", "./internal/rng")
	if code != 0 {
		t.Fatalf("exit %d for clean package\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Errorf("-json emitted %q for a clean package; want empty", stdout)
	}
}

// TestFindModuleRoot sanity-checks the go.mod walk from the test's own
// working directory.
func TestFindModuleRoot(t *testing.T) {
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Errorf("reported module root %s has no go.mod", root)
	}
}
