package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// summary.go is the interprocedural layer: a per-function summary of which
// determinism hazards a call to that function can reach, propagated
// bottom-up over the module call graph. The per-package analyzers consult
// these summaries so a hazard buried N helpers deep is reported at the
// site where it becomes a contract violation (the map range, the
// deterministic-package call into unvetted code, the sim-proc body) with
// the full helper chain in the message.
//
// Propagation is cycle-safe: Go's import graph is acyclic, so packages
// fold in topological order and only in-package recursion needs a
// fixpoint, which iterates until the hazard sets stop growing. Every run
// computes the summaries afresh: loading and type-checking dominate a run,
// and the walk over already-typed bodies is a small part of it.

// Hazard enumerates the facts a function summary can carry. The first
// three mirror their analyzers one-to-one; HazardEmit and HazardFloatAccum
// are only violations when reached from a map range (maporder, floatfold);
// HazardOSBlock is only a violation when reached from sim-proc context
// (vtblock).
type Hazard int

const (
	// HazardWallclock: reaches time.Now/Sleep/After/... (wallclock).
	HazardWallclock Hazard = iota
	// HazardGlobalRand: reaches a process-global math/rand function.
	HazardGlobalRand
	// HazardRawGo: spawns goroutines, touches channels, or joins through
	// sync.WaitGroup.
	HazardRawGo
	// HazardEmit: writes ordered output (fmt print, Write*/Emit* methods,
	// emitter packages) or stores formatted text in call order.
	HazardEmit
	// HazardFloatAccum: accumulates floats into state that outlives the
	// call, so calling it per map key folds in random order.
	HazardFloatAccum
	// HazardOSBlock: blocks on the OS — file IO, sockets, raw syscalls,
	// or real sync primitives — instead of virtual time.
	HazardOSBlock
	numHazards
)

// FuncSummary records, per hazard, the call chain from the summarized
// function down to the primitive that grounds the hazard. A nil chain
// means the hazard is absent. Chains are representative (one witness per
// hazard), capped at chainMaxLen links.
type FuncSummary struct {
	Chains [numHazards][]string
}

// Has reports whether the summary carries the hazard.
func (s *FuncSummary) Has(h Hazard) bool { return s != nil && s.Chains[h] != nil }

// chainMaxLen bounds witness chains so recursion cycles and very deep
// towers stay readable; longer chains end with an ellipsis.
const chainMaxLen = 8

// Chain renders the witness for h as "f → g → time.Now".
func (s *FuncSummary) Chain(h Hazard) string {
	return strings.Join(s.Chains[h], " → ")
}

// Summaries is the whole-program summary table, keyed by
// types.Func.FullName: a plain string that names a function the same way
// from its declaring package and from every caller's.
type Summaries struct {
	funcs map[string]*FuncSummary
}

// Lookup returns the summary for a resolved function, or nil.
func (s *Summaries) Lookup(f *types.Func) *FuncSummary {
	if f == nil {
		return nil
	}
	return s.funcs[f.FullName()]
}

// BuildSummaries folds hazard facts bottom-up over the universe of
// module-local packages.
func BuildSummaries(cfg *Config, universe []*Package) *Summaries {
	sums := &Summaries{funcs: make(map[string]*FuncSummary)}
	for _, pkg := range topoPackages(universe) {
		for name, fs := range summarizePackage(cfg, pkg, sums) {
			sums.funcs[name] = fs
		}
	}
	return sums
}

// summarizePackage computes final summaries for one package, reading
// cross-package callees from sums (final, since packages fold in import
// order) and iterating in-package edges to a fixpoint.
func summarizePackage(cfg *Config, pkg *Package, sums *Summaries) map[string]*FuncSummary {
	ix := indexFuncs(pkg)
	local := make(map[string]*FuncSummary, len(ix.decls))
	edges := make(map[string][]*types.Func, len(ix.decls))

	for _, fd := range ix.decls {
		name := fd.obj.FullName()
		local[name] = localFacts(cfg, pkg, fd.decl)
		edges[name] = callees(pkg.Info, fd.decl.Body)
	}

	// Fixpoint: in-package recursion (including mutual recursion cycles)
	// stabilizes because hazard sets only grow and are bounded.
	for changed := true; changed; {
		changed = false
		for _, fd := range ix.decls {
			name := fd.obj.FullName()
			fs := local[name]
			for _, callee := range edges[name] {
				var cs *FuncSummary
				if c, ok := local[callee.FullName()]; ok {
					cs = c
				} else {
					cs = sums.funcs[callee.FullName()]
				}
				if cs == nil {
					continue
				}
				for h := Hazard(0); h < numHazards; h++ {
					if cs.Chains[h] == nil || fs.Chains[h] != nil {
						continue
					}
					fs.Chains[h] = extendChain(callee.Name(), cs.Chains[h])
					changed = true
				}
			}
		}
	}
	return local
}

// extendChain prepends a caller link, capping length with an ellipsis so
// recursion cycles produce finite witnesses.
func extendChain(link string, rest []string) []string {
	if len(rest) >= chainMaxLen {
		rest = append(rest[:chainMaxLen-1:chainMaxLen-1], "…")
	}
	out := make([]string, 0, len(rest)+1)
	out = append(out, link)
	return append(out, rest...)
}

// wallClockFuncs are the time-package functions that read or schedule
// against the machine clock. Types and constants (time.Duration,
// time.Millisecond) stay legal: the testbed measures virtual durations, it
// just must never sample real ones.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// randConstructors are the math/rand and math/rand/v2 functions that build
// an explicitly-seeded local generator. They are the raw material
// internal/rng is made of; everything else on the package surface reads or
// mutates the process-global generator, whose state is shared across every
// caller in the binary and therefore depends on execution interleaving.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// fmtOutputFuncs are the fmt functions that produce ordered output as a
// side effect. Sprint* build values and are only hazardous if the result
// escapes, which maporder's append rule covers.
var fmtOutputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// ground decides whether the syntax node n, written in package pkgPath, is
// itself a wallclock, globalrand, rawgo or emit hazard, and names it. The
// name is the terminal of a summary's witness chain and the subject of a
// rule's direct diagnostic. Emit grounds on fmt output, a Write*/Emit*
// method, or a call into an emitter package other than pkgPath.
func ground(info *types.Info, cfg *Config, pkgPath string, n ast.Node) (Hazard, string, bool) {
	switch n := n.(type) {
	case *ast.GoStmt:
		return HazardRawGo, "go statement", true
	case *ast.SendStmt:
		return HazardRawGo, "channel send", true
	case *ast.UnaryExpr:
		if n.Op == token.ARROW {
			return HazardRawGo, "channel receive", true
		}
	case *ast.SelectStmt:
		return HazardRawGo, "select statement", true
	case *ast.ChanType:
		return HazardRawGo, "channel type", true
	case *ast.RangeStmt:
		if tv, ok := info.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return HazardRawGo, "range over channel", true
			}
		}
	case *ast.SelectorExpr:
		_, isFunc := info.Uses[n.Sel].(*types.Func)
		switch importedPackage(info, n.X) {
		case "time":
			if isFunc && wallClockFuncs[n.Sel.Name] {
				return HazardWallclock, "time." + n.Sel.Name, true
			}
		case "math/rand", "math/rand/v2":
			if isFunc && !randConstructors[n.Sel.Name] {
				return HazardGlobalRand, "rand." + n.Sel.Name, true
			}
		case "sync":
			if n.Sel.Name == "WaitGroup" {
				return HazardRawGo, "sync.WaitGroup", true
			}
		}
	case *ast.CallExpr:
		if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
				return HazardRawGo, "close", true
			}
		}
		if f := calleeFunc(info, n); f != nil && f.Pkg() != nil {
			switch path := f.Pkg().Path(); {
			case path == "fmt" && fmtOutputFuncs[f.Name()]:
				return HazardEmit, "fmt." + f.Name(), true
			case cfg.IsEmitter(path) && path != pkgPath:
				return HazardEmit, f.Pkg().Name() + "." + f.Name(), true
			}
		}
		if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
			if strings.HasPrefix(sel.Sel.Name, "Write") || strings.HasPrefix(sel.Sel.Name, "Emit") {
				return HazardEmit, "." + sel.Sel.Name, true
			}
		}
	}
	return 0, "", false
}

// localFacts extracts the hazards a single function body grounds directly,
// with the primitive's name as the chain terminal.
func localFacts(cfg *Config, pkg *Package, fd *ast.FuncDecl) *FuncSummary {
	fs := &FuncSummary{}
	set := func(h Hazard, terminal string) {
		if fs.Chains[h] == nil {
			fs.Chains[h] = []string{terminal}
		}
	}
	info := pkg.Info
	formats, fieldAppend := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if h, term, ok := ground(info, cfg, pkg.PkgPath, n); ok {
			set(h, term)
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if floatAccumulation(info, n, fd) {
				set(HazardFloatAccum, "float accumulation")
			}
		case *ast.CallExpr:
			if f := calleeFunc(info, n); f != nil && f.Pkg() != nil {
				if f.Pkg().Path() == "fmt" && (strings.HasPrefix(f.Name(), "Sprint") || f.Name() == "Errorf") {
					formats = true
				}
				// The kernel packages are exempt from grounding OSBlock:
				// they implement virtual time *with* real sync primitives
				// (the single-runnable handoff), so their exported API is
				// precisely the sanctioned way to block. Everything else
				// that touches the OS carries the fact outward.
				if term, ok := osBlockCall(f); ok && !cfg.IsKernel(pkg.PkgPath) {
					set(HazardOSBlock, term)
				}
			}
			if isAppend(info, n) && len(n.Args) > 0 {
				if _, ok := ast.Unparen(n.Args[0]).(*ast.SelectorExpr); ok {
					fieldAppend = true
				}
			}
		}
		return true
	})
	// The v.fail(...) pattern: rendering text and appending it to a field
	// stores the rendered strings in call order, which a map-range caller
	// turns into random order.
	if formats && fieldAppend {
		set(HazardEmit, "formats + appends to a field")
	}
	return fs
}

// floatAccumulation reports whether the assignment folds a float into
// storage that outlives the function body's current call frame locals —
// a field reached through a receiver/parameter, or a package variable.
// Calling such a function once per map key folds floats in random order.
func floatAccumulation(info *types.Info, as *ast.AssignStmt, fd *ast.FuncDecl) bool {
	// Only selector targets (x.field, pkg.Var) reach storage the caller
	// can observe across calls; plain locals (including named results)
	// stay frame-local and commute freely with call order.
	sel, ok := foldTarget(info, as).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	root := rootIdent(sel)
	if root == nil {
		return true // conservatively escaping (chained calls etc.)
	}
	// Frame-local root (a local struct value) does not outlive the call
	// unless it is the receiver or a parameter, which alias caller state.
	obj := info.Uses[root]
	return obj != nil && !declaredWithin(obj, fd.Body.Pos(), fd.Body.End())
}

// osBlockFuncs are package-level functions that block on the operating
// system: file and directory IO, socket setup, process execution, and raw
// syscalls. Inside a sim proc only virtual-time sleeps are legal — one
// os.ReadFile under a virtual-time measurement perturbs every latency
// number after it.
var osBlockFuncs = map[string]map[string]bool{
	"os": {
		"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
		"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirTemp": true,
		"Mkdir": true, "MkdirAll": true, "Remove": true, "RemoveAll": true,
		"Rename": true, "Stat": true, "Lstat": true, "Truncate": true,
		"Pipe": true, "Chdir": true, "Symlink": true, "Link": true,
	},
	"net": {
		"Dial": true, "DialTimeout": true, "Listen": true, "ListenPacket": true,
		"LookupHost": true, "LookupAddr": true, "LookupIP": true,
	},
	"os/exec": {"Command": true, "CommandContext": true},
	"io/ioutil": {
		"ReadFile": true, "WriteFile": true, "ReadDir": true, "TempFile": true, "TempDir": true,
	},
}

// osBlockMethods are methods that block the calling goroutine for real —
// OS handles and the real sync package's waits. The sim package's own
// Mutex/Cond/Group are virtual-time lookalikes and do not match.
var osBlockMethods = map[string]bool{
	"(*os.File).Read": true, "(*os.File).Write": true, "(*os.File).Close": true,
	"(*os.File).Sync": true, "(*os.File).Seek": true, "(*os.File).ReadAt": true,
	"(*os.File).WriteAt": true, "(*os.File).WriteString": true,
	"(*sync.Mutex).Lock": true, "(*sync.RWMutex).Lock": true,
	"(*sync.RWMutex).RLock": true, "(*sync.WaitGroup).Wait": true,
	"(*sync.Cond).Wait": true, "(*sync.Once).Do": true,
	"(*os/exec.Cmd).Run": true, "(*os/exec.Cmd).Output": true,
	"(*os/exec.Cmd).CombinedOutput": true, "(*os/exec.Cmd).Wait": true,
}

// osBlockCall classifies a resolved callee as OS-blocking, returning the
// terminal description for the witness chain.
func osBlockCall(f *types.Func) (string, bool) {
	path := f.Pkg().Path()
	if path == "syscall" || strings.HasPrefix(path, "golang.org/x/sys/") {
		return "syscall." + f.Name(), true
	}
	if set, ok := osBlockFuncs[path]; ok && set[f.Name()] {
		return path + "." + f.Name(), true
	}
	if f.Type().(*types.Signature).Recv() != nil && osBlockMethods[f.FullName()] {
		return f.FullName(), true
	}
	return "", false
}
