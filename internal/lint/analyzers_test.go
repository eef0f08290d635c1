package lint_test

import (
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cloudybench/internal/lint"
	"cloudybench/internal/lint/linttest"
)

// fixtureCfg binds the determinism contract to the given fixture package
// paths, with the repo's emitter packages so the emitter rule is testable.
func fixtureCfg(pkgs ...string) *lint.Config {
	return &lint.Config{
		Deterministic: pkgs,
		Emitters:      []string{"cloudybench/internal/report", "cloudybench/internal/obs"},
	}
}

func TestWallClock(t *testing.T) {
	linttest.Run(t, "wallclock", fixtureCfg("wallclock"), lint.WallClock)
}

func TestGlobalRand(t *testing.T) {
	linttest.Run(t, "globalrand", fixtureCfg("globalrand"), lint.GlobalRand)
}

// TestGlobalRandExempt proves the rng-package exemption: the same rule over
// a package configured as the randomness home produces nothing.
func TestGlobalRandExempt(t *testing.T) {
	cfg := fixtureCfg("globalrand_exempt")
	cfg.RandExempt = []string{"globalrand_exempt"}
	linttest.Run(t, "globalrand_exempt", cfg, lint.GlobalRand)
}

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "maporder", fixtureCfg("maporder"), lint.MapOrder)
}

func TestRawGo(t *testing.T) {
	linttest.Run(t, "rawgo", fixtureCfg("rawgo"), lint.RawGo)
}

// TestRawGoKernelBlessing proves the kernel carve-out: the same fixture,
// with its package configured as concurrency kernel, produces nothing.
func TestRawGoKernelBlessing(t *testing.T) {
	loader := sharedLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "rawgo"), "rawgokernel")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fixtureCfg("rawgokernel")
	cfg.Kernel = []string{"rawgokernel"}
	diags, err := lint.Run(cfg, []*lint.Analyzer{lint.RawGo}, []*lint.Package{pkg}, lint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("kernel-blessed package still flagged: %s", d)
	}
}

// TestGateDecidesStaleness pins the one gate per rule: an allow for a
// gated rule, in a package with no violation, is stale where the rule's
// gate covers the package and left alone where the gate excludes it (the
// rule skipping the package is a config decision, not rot).
func TestGateDecidesStaleness(t *testing.T) {
	pkg, err := sharedLoader(t).LoadDir(filepath.Join("testdata", "src", "gate"), "gate")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		rule    *lint.Analyzer
		exclude func(*lint.Config)
	}{
		{lint.GlobalRand, func(c *lint.Config) { c.RandExempt = []string{"gate"} }},
		{lint.RawGo, func(c *lint.Config) { c.Kernel = []string{"gate"} }},
		{lint.VTBlock, func(c *lint.Config) { c.Kernel = []string{"gate"} }},
	}
	for _, tc := range cases {
		excluded := fixtureCfg("gate")
		tc.exclude(excluded)
		for _, run := range []struct {
			cfg   *lint.Config
			stale int
		}{{fixtureCfg("gate"), 1}, {excluded, 0}} {
			diags, err := lint.Run(run.cfg, []*lint.Analyzer{tc.rule}, []*lint.Package{pkg}, lint.Options{})
			if err != nil {
				t.Fatal(err)
			}
			stale := 0
			for _, d := range diags {
				if d.Analyzer == lint.AllowStale.Name && strings.Contains(d.Message, "allow "+tc.rule.Name+"(") {
					stale++
				} else {
					t.Errorf("%s: unexpected diagnostic %s", tc.rule.Name, d)
				}
			}
			if stale != run.stale {
				t.Errorf("%s: %d stale allows, want %d (gate covers the package: %v)",
					tc.rule.Name, stale, run.stale, run.stale == 1)
			}
		}
	}
}

func TestFloatFold(t *testing.T) {
	linttest.Run(t, "floatfold", fixtureCfg("floatfold"), lint.FloatFold)
}

// TestBadSuppressions asserts that malformed, unknown-rule, and
// reason-less //detlint:allow comments are themselves reported rather than
// silently honoured.
func TestBadSuppressions(t *testing.T) {
	linttest.Run(t, "badsuppress", fixtureCfg("badsuppress"), lint.WallClock)
}

var (
	loaderOnce sync.Once
	loaderVal  *lint.Loader
	loaderErr  error
)

// sharedLoader returns one process-wide loader so the standard library is
// type-checked from source once, not once per test.
func sharedLoader(t *testing.T) *lint.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := lint.FindModuleRoot()
		if err != nil {
			loaderErr = err
			return
		}
		loaderVal, loaderErr = lint.NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loaderVal
}
