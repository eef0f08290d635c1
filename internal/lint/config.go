package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Config declares which packages the determinism contract binds and where
// the blessed exceptions live. It is the "facts" layer shared by every
// analyzer: rules consult it instead of hard-coding package lists, and
// tests substitute a fixture-scoped config.
type Config struct {
	// Deterministic is the set of import paths whose code must be a pure
	// function of its inputs and seed. Suffix "/..." matches a subtree.
	Deterministic []string
	// RandExempt are packages allowed to touch math/rand directly — the
	// seeded stream home (internal/rng). Everyone else draws randomness
	// from rng sources.
	RandExempt []string
	// Kernel are packages blessed to use goroutines and channels: the DES
	// kernel itself, which turns them back into deterministic virtual
	// time. rawgo skips these; every other exception needs a
	// //detlint:allow comment at the site.
	Kernel []string
	// Emitters are packages whose call surface counts as "output" for
	// maporder: calling into them from a map iteration bakes map order
	// into rendered bytes.
	Emitters []string
	// ProcTypes are the fully-qualified named types whose presence as a
	// function parameter marks the function as sim-proc context for
	// vtblock ("pkg/path.TypeName"; a pointer to the type matches).
	// Default: the DES kernel's Proc.
	ProcTypes []string
}

// DefaultConfig returns the repository's determinism contract. Everything
// under internal/ is part of the deterministic testbed except the linter
// itself; cmd/ entry points and examples/ may use wall-clock time for
// operator-facing progress output.
func DefaultConfig() *Config {
	return &Config{
		Deterministic: []string{
			"cloudybench/internal/autoscale",
			"cloudybench/internal/baselines",
			"cloudybench/internal/cdb",
			"cloudybench/internal/chaos",
			"cloudybench/internal/check",
			"cloudybench/internal/cluster",
			"cloudybench/internal/config",
			"cloudybench/internal/core",
			"cloudybench/internal/engine",
			"cloudybench/internal/evaluator",
			"cloudybench/internal/experiments",
			"cloudybench/internal/meter",
			"cloudybench/internal/metrics",
			"cloudybench/internal/netsim",
			"cloudybench/internal/node",
			"cloudybench/internal/obs",
			"cloudybench/internal/patterns",
			"cloudybench/internal/pricing",
			"cloudybench/internal/report",
			"cloudybench/internal/replication",
			"cloudybench/internal/rng",
			"cloudybench/internal/sim",
			"cloudybench/internal/storage",
			// The linter's own fixture packages: ./... skips testdata, but
			// pointing detlint at a fixture directly must fail — the
			// fixtures double as a liveness check that the rules still
			// have teeth (TestDetlintFlagsFixtures).
			"cloudybench/internal/lint/testdata/...",
		},
		RandExempt: []string{"cloudybench/internal/rng"},
		Kernel:     []string{"cloudybench/internal/sim"},
		ProcTypes:  []string{"cloudybench/internal/sim.Proc"},
		Emitters: []string{
			"cloudybench/internal/report",
			"cloudybench/internal/obs",
		},
	}
}

func matchPath(pkgPath string, set []string) bool {
	for _, p := range set {
		if sub, ok := strings.CutSuffix(p, "/..."); ok {
			if pkgPath == sub || strings.HasPrefix(pkgPath, sub+"/") {
				return true
			}
			continue
		}
		if pkgPath == p {
			return true
		}
	}
	return false
}

// IsDeterministic reports whether the contract binds pkgPath.
func (c *Config) IsDeterministic(pkgPath string) bool { return matchPath(pkgPath, c.Deterministic) }

// IsRandExempt reports whether pkgPath may use math/rand directly.
func (c *Config) IsRandExempt(pkgPath string) bool { return matchPath(pkgPath, c.RandExempt) }

// IsKernel reports whether pkgPath is blessed concurrency kernel.
func (c *Config) IsKernel(pkgPath string) bool { return matchPath(pkgPath, c.Kernel) }

// IsEmitter reports whether pkgPath's call surface counts as output.
func (c *Config) IsEmitter(pkgPath string) bool { return matchPath(pkgPath, c.Emitters) }

// suppressionRe matches the one accepted exception syntax:
//
//	//detlint:allow rule(reason text)
//
// The rule must be a known analyzer name and the reason must be non-empty;
// a malformed suppression is itself reported, never silently honoured.
var suppressionRe = regexp.MustCompile(`^//detlint:allow\s+([a-z]+)\(([^)]*)\)\s*(?://.*)?$`)

// suppression is one parsed //detlint:allow comment.
type suppression struct {
	rule   string
	reason string
	line   int
	pos    token.Pos
	end    token.Pos
}

// collectSuppressions parses every //detlint:allow comment in the files.
// Malformed or reason-less suppressions are reported as diagnostics of the
// pseudo-analyzer "detlint" so they fail the run instead of masking one.
func collectSuppressions(fset *token.FileSet, files []*ast.File, known map[string]bool, report func(Diagnostic)) []suppression {
	var out []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//detlint:") {
					continue
				}
				// hotpath/coldpath are annotations consumed by the hotalloc
				// analyzer, not suppressions; anything else under the
				// //detlint: prefix must parse as an allow.
				if t := strings.TrimSpace(c.Text); t == hotpathMarker || t == coldpathMarker {
					continue
				}
				m := suppressionRe.FindStringSubmatch(c.Text)
				bad := func(format string, args ...any) {
					report(Diagnostic{
						Pos:      fset.Position(c.Pos()),
						Analyzer: "detlint",
						Message:  fmt.Sprintf(format, args...),
					})
				}
				if m == nil {
					bad("malformed suppression %q; want //detlint:allow rule(reason)", c.Text)
					continue
				}
				rule, reason := m[1], strings.TrimSpace(m[2])
				if !known[rule] {
					bad("suppression names unknown rule %q", rule)
					continue
				}
				if reason == "" {
					bad("suppression for %s needs a reason: //detlint:allow %s(why this site is safe)", rule, rule)
					continue
				}
				out = append(out, suppression{
					rule:   rule,
					reason: reason,
					line:   fset.Position(c.Pos()).Line,
					pos:    c.Pos(),
					end:    c.End(),
				})
			}
		}
	}
	return out
}

// suppressedBy returns the index of the suppression covering d — same
// rule, same file, comment on the diagnostic's line or the line above — or
// -1. The index lets the runner track which suppressions earned their keep
// (allowstale).
func suppressedBy(d Diagnostic, sups []suppression, fset *token.FileSet) int {
	// Exact-line matches win over comment-above matches: a trailing allow on
	// line N must not also claim line N+1's diagnostic when N+1 carries its
	// own trailing allow (the staleness audit depends on each suppression
	// being credited for its own site).
	above := -1
	for i, s := range sups {
		if s.rule != d.Analyzer {
			continue
		}
		if fset.Position(s.pos).Filename != d.Pos.Filename {
			continue
		}
		if s.line == d.Pos.Line {
			return i
		}
		if s.line == d.Pos.Line-1 && above < 0 {
			above = i
		}
	}
	return above
}
