package lint_test

import (
	"os"
	"path/filepath"
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
		root, err := moduleRoot()
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

func moduleRoot() (string, error) {
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
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
