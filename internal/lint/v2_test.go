package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cloudybench/internal/lint"
	"cloudybench/internal/lint/linttest"
)

// TestChainPropagation is the interprocedural anchor: a deterministic
// package delegating to an unvetted helper tower is flagged at the
// boundary call with the full witness chain — three helpers deep, across
// the package boundary (chain → chainhelper: Stamp → mid → leaf →
// time.Now), and through an in-package mutual-recursion cycle whose
// deeper half emits.
func TestChainPropagation(t *testing.T) {
	linttest.RunWith(t, "chain", fixtureCfg("chain"), lint.Options{},
		[]string{"chainhelper"}, lint.WallClock, lint.MapOrder)
}

// TestVTBlock covers the sim-proc OS-blocking rule: direct primitives,
// real sync waits, helper towers reaching the OS by summary, closures
// with proc parameters, the proc-context-callee skip, and a reviewed
// allow.
func TestVTBlock(t *testing.T) {
	cfg := fixtureCfg("vtblock")
	cfg.ProcTypes = []string{"vtblock.Proc"}
	linttest.Run(t, "vtblock", cfg, lint.VTBlock)
}

// TestAllowStale covers suppression rot: a live allow is honoured
// silently, a rotted one (trailing or standalone) is itself reported.
func TestAllowStale(t *testing.T) {
	linttest.Run(t, "allowstale", fixtureCfg("allowstale"), lint.WallClock)
}

// TestHotAlloc drives the compiler's escape analysis over the annotated
// fixture: escapes in hotpath functions and their direct callees are
// reported, coldpath callees and panic arguments are exempt, and a
// reviewed allow on the allocating line is honoured.
func TestHotAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build")
	}
	linttest.RunWith(t, "hotalloc", fixtureCfg("hotalloc"), lint.Options{HotAlloc: true}, nil)
}

// TestRuleRegistry pins the rule inventory: Analyzers is what a plain run
// executes, AllRules adds the runner-driven rules (hotalloc, allowstale)
// for -rules listings and suppression parsing.
func TestRuleRegistry(t *testing.T) {
	plain := make(map[string]bool)
	for _, a := range lint.Analyzers() {
		plain[a.Name] = true
	}
	for _, name := range []string{"wallclock", "globalrand", "maporder", "rawgo", "floatfold", "vtblock"} {
		if !plain[name] {
			t.Errorf("Analyzers() lost rule %s", name)
		}
	}
	all := make(map[string]bool)
	for _, a := range lint.AllRules() {
		all[a.Name] = true
	}
	for _, name := range []string{"hotalloc", "allowstale"} {
		if !all[name] {
			t.Errorf("AllRules() lost runner-driven rule %s", name)
		}
		if plain[name] {
			t.Errorf("rule %s must not be in Analyzers() (it has no per-package Run)", name)
		}
	}
}

// TestChainMessageShape pins the witness-chain rendering end to end: load
// the cross-package fixture and assert the exact chain text, so a
// refactor cannot silently truncate chains to one level.
func TestChainMessageShape(t *testing.T) {
	loader := sharedLoader(t)
	helper, err := loader.LoadDir("testdata/src/chainhelper", "chainhelper")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir("testdata/src/chain", "chain")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(fixtureCfg("chain"), []*lint.Analyzer{lint.WallClock},
		[]*lint.Package{pkg}, lint.Options{Universe: []*lint.Package{helper, pkg}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "Stamp → mid → leaf → time.Now") {
			found = true
		}
	}
	if !found {
		t.Errorf("no diagnostic carried the full 3-level witness chain; got %v", diags)
	}
}

// TestRunWritesNothingToDisk pins that a lint run depends on the source
// tree alone: with the user cache and home directories pointed at empty
// temp dirs, a run over the cross-package chain fixture leaves both empty.
func TestRunWritesNothingToDisk(t *testing.T) {
	cacheHome, home := t.TempDir(), t.TempDir()
	t.Setenv("XDG_CACHE_HOME", cacheHome)
	t.Setenv("HOME", home)

	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	helper, err := loader.LoadDir(filepath.Join("testdata", "src", "chainhelper"), "chainhelper")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "chain"), "chain")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(fixtureCfg("chain"), []*lint.Analyzer{lint.WallClock},
		[]*lint.Package{pkg}, lint.Options{Universe: []*lint.Package{helper, pkg}})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("chain fixture produced no diagnostics")
	}
	for _, dir := range []string{cacheHome, home} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			t.Errorf("lint run wrote %s", filepath.Join(dir, e.Name()))
		}
	}
}
