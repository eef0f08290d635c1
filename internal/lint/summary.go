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
	// HazardRawGo: spawns goroutines or performs channel operations.
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
		switch n := n.(type) {
		case *ast.GoStmt:
			set(HazardRawGo, "go statement")
		case *ast.SendStmt:
			set(HazardRawGo, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				set(HazardRawGo, "channel receive")
			}
		case *ast.SelectStmt:
			set(HazardRawGo, "select statement")
		case *ast.SelectorExpr:
			switch importedPackage(info, n.X) {
			case "time":
				if _, isFunc := info.Uses[n.Sel].(*types.Func); isFunc && wallClockFuncs[n.Sel.Name] {
					set(HazardWallclock, "time."+n.Sel.Name)
				}
			case "math/rand", "math/rand/v2":
				if _, isFunc := info.Uses[n.Sel].(*types.Func); isFunc && !randConstructors[n.Sel.Name] {
					set(HazardGlobalRand, "rand."+n.Sel.Name)
				}
			}
		case *ast.AssignStmt:
			if floatAccumulation(info, n, fd) {
				set(HazardFloatAccum, "float accumulation")
			}
		case *ast.CallExpr:
			if f := calleeFunc(info, n); f != nil && f.Pkg() != nil {
				path := f.Pkg().Path()
				switch {
				case path == "fmt" && fmtOutputFuncs[f.Name()]:
					set(HazardEmit, "fmt."+f.Name())
				case cfg.IsEmitter(path) && path != pkg.PkgPath:
					set(HazardEmit, f.Pkg().Name()+"."+f.Name())
				case path == "fmt" && (strings.HasPrefix(f.Name(), "Sprint") || f.Name() == "Errorf"):
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
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if strings.HasPrefix(sel.Sel.Name, "Write") || strings.HasPrefix(sel.Sel.Name, "Emit") {
					set(HazardEmit, "."+sel.Sel.Name)
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
	if len(as.Lhs) != 1 {
		return false
	}
	lhs := ast.Unparen(as.Lhs[0])
	tv, ok := info.Types[lhs]
	if !ok {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsFloat == 0 {
		return false
	}
	switch as.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
	case token.ASSIGN:
		bin, ok := ast.Unparen(as.Rhs[0]).(*ast.BinaryExpr)
		if !ok {
			return false
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return false
		}
		lobj := exprObject(info, lhs)
		if lobj == nil || (exprObject(info, bin.X) != lobj && exprObject(info, bin.Y) != lobj) {
			return false
		}
	default:
		return false
	}
	// Only selector targets (x.field, pkg.Var) reach storage the caller
	// can observe across calls; plain locals (including named results)
	// stay frame-local and commute freely with call order.
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	root := rootIdent(sel)
	if root == nil {
		return true // conservatively escaping (chained calls etc.)
	}
	obj := info.Uses[root]
	if obj == nil {
		return false
	}
	// Frame-local root (a local struct value) does not outlive the call
	// unless it is the receiver or a parameter, which alias caller state.
	if declaredWithin(obj, fd.Body.Pos(), fd.Body.End()) {
		return false
	}
	return true
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

// reachable reports whether a call to f grounds hazard h somewhere down
// its helper chain, consulting both the direct primitive tables (for
// stdlib callees, which have no summaries) and the summary table.
func (s *Summaries) reachable(f *types.Func, h Hazard) (string, bool) {
	if fs := s.Lookup(f); fs.Has(h) {
		return fs.Chain(h), true
	}
	return "", false
}

// checkPropagated reports calls in deterministic code whose callee lives
// outside the contract (a module package not bound deterministic) but
// whose helper chain still grounds hazard h. Direct uses inside
// deterministic packages are the per-package analyzers' job; this closes
// the boundary-crossing gap where a deterministic package delegates to an
// unvetted helper tower. Callees inside deterministic packages are skipped
// on purpose: their bodies are flagged (or deliberately suppressed) at the
// declaration site, and re-reporting every caller would turn one reviewed
// exception into a diagnostic storm.
func checkPropagated(pass *Pass, h Hazard, what string) {
	if !pass.Cfg.IsDeterministic(pass.PkgPath) {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if callee == nil || callee.Pkg() == nil {
				return true
			}
			if pass.Cfg.IsDeterministic(callee.Pkg().Path()) {
				return true
			}
			if chain, ok := pass.Summaries.reachable(callee, h); ok {
				pass.Report(call.Pos(), "call to %s reaches %s (%s → %s); deterministic packages must not delegate to it",
					callee.Name(), what, callee.Name(), chain)
				return false
			}
			return true
		})
	}
}
