package lint

import "go/ast"

// boundary.go holds the three boundary rules. Each forbids one hazard in
// the packages its gate covers, in two forms: a site that grounds the
// hazard written in the package itself (ground decides which sites do,
// and names them), and a call that delegates to an unvetted module helper
// whose chain grounds it (checkPropagated). The rules differ only in
// hazard, gate and message.

// WallClock forbids wall-clock time in deterministic packages. A run's
// report must be a pure function of its seed; time.Now() makes it a
// function of the host's scheduler and clock instead. Virtual time comes
// from the sim kernel (sim.Sim.Now, Proc.Sleep).
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "forbid time.Now/Since/Sleep/After/NewTimer/NewTicker in deterministic packages; " +
		"virtual time must come from the sim clock",
	Gate: deterministic,
	Run: boundary(HazardWallclock, "the wall clock", func(term string) string {
		return term + " reads the wall clock; deterministic packages must take time from the sim kernel (sim.Sim.Now / Proc.Sleep)"
	}),
}

// GlobalRand forbids the package-level math/rand convenience functions
// (rand.Intn, rand.Float64, rand.Shuffle, ...) outside internal/rng. All
// workload randomness flows through seeded rng streams so a run replays
// from its seed; the global generator is invisible shared state that any
// other call site can perturb.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc: "forbid package-level math/rand and math/rand/v2 functions outside internal/rng; " +
		"all randomness flows through seeded rng streams",
	Gate: deterministicOutsideRandHome,
	Run: boundary(HazardGlobalRand, "the process-global generator", func(term string) string {
		return term + " uses the process-global generator; draw from a seeded internal/rng stream instead"
	}),
}

// RawGo forbids ad-hoc concurrency in deterministic packages: bare go
// statements, channel types and operations (send, receive, select, close,
// range-over-channel), and sync.WaitGroup. The DES kernel (internal/sim)
// owns real goroutines and turns them back into a deterministic
// single-runnable discipline; anything spawned outside it races the
// kernel's schedule and is exactly how the byte-identical report guarantee
// dies. The kernel package itself is blessed in the config; the
// experiments cell pool documents its exception with //detlint:allow.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc: "forbid go statements, channels, and sync.WaitGroup in deterministic packages " +
		"outside the sim kernel; concurrency belongs to the DES scheduler",
	Gate: deterministicOutsideKernel,
	Run: boundary(HazardRawGo, "raw concurrency", func(term string) string {
		return rawGoMessages[term]
	}),
}

// rawGoMessages gives each raw-concurrency terminal ground names its
// direct diagnostic.
var rawGoMessages = map[string]string{
	"go statement":       "bare go statement; deterministic packages schedule work through the sim kernel (sim.Sim.Go)",
	"channel send":       "channel send; use the sim kernel's queues and wakeups instead of raw channels",
	"channel receive":    "channel receive; use the sim kernel's queues and wakeups instead of raw channels",
	"select statement":   "select statement; channel multiplexing is nondeterministic — use sim events",
	"channel type":       "channel type; deterministic packages communicate through sim queues, not channels",
	"range over channel": "range over channel; drain sim queues in virtual time instead",
	"close":              "close on a channel; deterministic packages do not own channels",
	"sync.WaitGroup":     "sync.WaitGroup joins real goroutines; deterministic packages wait in virtual time (sim.Group)",
}

// boundary is the one run function of the boundary rules: what names the
// hazard in a delegation diagnostic, and direct renders the diagnostic
// for a site, given the terminal ground named it by.
func boundary(h Hazard, what string, direct func(term string) string) func(*Pass) error {
	return func(pass *Pass) error {
		checkPropagated(pass, h, what)
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if gh, term, ok := ground(pass.Info, pass.Cfg, pass.PkgPath, n); ok && gh == h {
					pass.Report(n.Pos(), "%s", direct(term))
				}
				return true
			})
		}
		return nil
	}
}

// checkPropagated reports calls whose callee lives outside the contract (a
// module package not bound deterministic) but whose helper chain still
// grounds hazard h. Direct uses inside deterministic packages are the
// direct walk's job; this closes the boundary-crossing gap where a
// deterministic package delegates to an unvetted helper tower. Callees
// inside deterministic packages are skipped on purpose: their bodies are
// flagged (or deliberately suppressed) at the declaration site, and
// re-reporting every caller would turn one reviewed exception into a
// diagnostic storm.
func checkPropagated(pass *Pass, h Hazard, what string) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if callee == nil || callee.Pkg() == nil || pass.Cfg.IsDeterministic(callee.Pkg().Path()) {
				return true
			}
			if s := pass.Summaries.Lookup(callee); s.Has(h) {
				pass.Report(call.Pos(), "call to %s reaches %s (%s → %s); deterministic packages must not delegate to it",
					callee.Name(), what, callee.Name(), s.Chain(h))
				return false
			}
			return true
		})
	}
}
