// Package lint implements detlint: a suite of static analyzers that
// mechanically enforce the testbed's determinism contract. The contract
// exists because every score in the paper reproduction — PERFECT, O-Score,
// the golden report files — is only comparable across runs if a run is a
// pure function of its seed. One stray time.Now(), one global math/rand
// call, or one map iteration in a render path silently breaks the
// byte-identical guarantee that PR 3 established for any -parallel level
// and any GOMAXPROCS.
//
// The suite mirrors the shape of golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) but is self-contained: the module has no external
// dependencies and the analyzers only need parsed, type-checked packages,
// which the stdlib go/* packages provide. Should the module ever vendor
// x/tools, each analyzer's Run is a one-line adaptation away.
//
// Seven rules make up the contract (see DESIGN.md "The determinism
// contract" and §16):
//
//	wallclock  — no wall-clock time in deterministic packages
//	globalrand — no global math/rand state; randomness flows through rng
//	maporder   — no map iteration that emits output or escapes results
//	rawgo      — no ad-hoc goroutines/channels outside the sim kernel
//	floatfold  — no float accumulation in map iteration order
//	vtblock    — no OS-blocking calls (file IO, sockets, real sync waits)
//	             inside sim-proc context; only virtual time may block
//	hotalloc   — no heap allocation in //detlint:hotpath functions,
//	             checked against the compiler's escape analysis
//
// Each thing is decided once. A rule's package gate (Analyzer.Gate) is
// checked by the runner, both before the rule runs on a package and when
// the allowstale audit asks whether a package's allow could have fired.
// Which syntax is itself a hazard — a time.Now, a global rand draw, a
// channel, an output call — is decided by ground (summary.go), which
// both grounds the per-function hazard summaries and gives the rules
// their direct sites. The summaries propagate bottom-up over the module
// call graph, so the first six rules see through helper chains: a
// time.Now five helpers deep is reported at the deterministic call site
// with the full chain in the message. wallclock, globalrand and rawgo
// are one rule shape over three hazards (boundary.go).
//
// Exceptions are declared in place with a suppression comment:
//
//	//detlint:allow rule(reason)
//
// on the flagged line or the line above it. The reason is mandatory, so
// every exception is visible and greppable in review, and a suppression
// that no longer suppresses anything is itself reported (allowstale) so
// the exception inventory cannot rot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named determinism rule. It mirrors
// golang.org/x/tools/go/analysis.Analyzer's shape so the rules read like
// standard vet checks.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics and in
	// //detlint:allow comments. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of the rule and its rationale.
	Doc string
	// Gate reports whether the rule polices pkgPath under cfg. The runner
	// runs the rule only on packages its gate covers, and only there can
	// an allow for the rule be stale. Nil covers every package.
	Gate func(cfg *Config, pkgPath string) bool
	// Run inspects one package and reports violations via pass.Report.
	Run func(pass *Pass) error
}

// covers applies the rule's gate.
func (a *Analyzer) covers(cfg *Config, pkgPath string) bool {
	return a.Gate == nil || a.Gate(cfg, pkgPath)
}

// The package gates the rules share: the deterministic packages, less the
// randomness home (globalrand) or the concurrency kernel (rawgo, vtblock),
// whose use of the primitive is the point.
func deterministic(cfg *Config, pkgPath string) bool { return cfg.IsDeterministic(pkgPath) }

func deterministicOutsideRandHome(cfg *Config, pkgPath string) bool {
	return cfg.IsDeterministic(pkgPath) && !cfg.IsRandExempt(pkgPath)
}

func deterministicOutsideKernel(cfg *Config, pkgPath string) bool {
	return cfg.IsDeterministic(pkgPath) && !cfg.IsKernel(pkgPath)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// PkgPath is the package's import path (e.g. cloudybench/internal/sim).
	PkgPath string
	// Cfg is the shared determinism configuration: which packages are
	// deterministic, which package is the blessed randomness home, which
	// package is the concurrency kernel.
	Cfg *Config
	// Summaries is the whole-program hazard table (summary.go).
	Summaries *Summaries

	report func(Diagnostic)
}

// Report records one violation.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportFix records one violation carrying a machine-applicable rewrite.
func (p *Pass) ReportFix(pos token.Pos, fix *Fix, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Fix:      fix,
	})
}

// Diagnostic is one reported violation, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Fix, when non-nil, is a machine-applicable rewrite that resolves
	// the diagnostic (applied by detlint -fix, see fix.go).
	Fix *Fix
}

// String renders the diagnostic in the familiar vet format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// sortDiagnostics orders diagnostics by (file, line, column, analyzer,
// message) so output is stable regardless of analyzer, package or
// compiler-output order.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Analyzers returns the full per-package determinism suite in reporting
// order. HotAlloc is not in the list: it shells out to the compiler and is
// driven separately (RunHotAlloc) behind the -hotalloc flag. AllowStale is
// not in the list either: its diagnostics come from the runner's own
// suppression bookkeeping, not a package pass.
func Analyzers() []*Analyzer {
	return []*Analyzer{WallClock, GlobalRand, MapOrder, RawGo, FloatFold, VTBlock}
}

// AllRules returns every rule a //detlint:allow comment may legally name,
// including the specially-driven ones.
func AllRules() []*Analyzer {
	return append(Analyzers(), HotAlloc, AllowStale)
}

// knownRuleNames is the suppression-parsing vocabulary: every rule name
// that exists, independent of which analyzers a particular run enables. A
// run with a subset of analyzers must still parse (and ignore) the other
// rules' suppressions rather than call them unknown.
func knownRuleNames() map[string]bool {
	out := make(map[string]bool)
	for _, a := range AllRules() {
		out[a.Name] = true
	}
	return out
}

// importedPackage resolves an expression to the import path of the package
// it names, or "" if the expression is not a package qualifier. Respects
// aliases and local shadowing because it goes through the type checker's
// Uses map rather than matching identifier text.
func importedPackage(info *types.Info, expr ast.Expr) string {
	id, ok := expr.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// declaredWithin reports whether obj's declaration lies inside [lo, hi] —
// used to separate loop-local state from state that escapes the loop.
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() >= lo && obj.Pos() <= hi
}
