package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// VTBlock forbids OS-blocking calls inside sim-proc context: functions
// that take the DES kernel's *sim.Proc run under virtual time, where every
// latency the testbed reports is an accounting entry, not a wall-clock
// wait. A real block — file IO, a socket, a raw syscall, a sync.Mutex
// handed to the scheduler — stalls the kernel's single-runnable discipline
// for a host-dependent duration, which is exactly the measurement
// perturbation the virtual clock exists to eliminate. Only virtual-time
// sleeps (Proc.Sleep, sim.Mutex/Cond/Group) are legal; artifact writing
// belongs after Run returns, outside proc context.
//
// The rule sees through helper chains via the HazardOSBlock summary, so a
// proc handing work to a plain helper that os.Create()s three levels down
// is reported at the hand-off.
var VTBlock = &Analyzer{
	Name: "vtblock",
	Doc: "forbid OS-blocking calls (file IO, sockets, syscalls, real sync waits) in " +
		"sim-proc context, including through helper chains; block in virtual time instead",
	Gate: deterministicOutsideKernel,
	Run:  runVTBlock,
}

func runVTBlock(pass *Pass) error {
	reported := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil || !procContextSig(pass, funcDeclSig(pass, n)) {
					return true
				}
				body = n.Body
			case *ast.FuncLit:
				if !procContextSig(pass, pass.Info.Types[n].Type) {
					return true
				}
				body = n.Body
			default:
				return true
			}
			checkProcBody(pass, body, reported)
			return true
		})
	}
	return nil
}

// funcDeclSig returns the declared function's type, or nil.
func funcDeclSig(pass *Pass, fd *ast.FuncDecl) types.Type {
	if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
		return obj.Type()
	}
	return nil
}

// procContextSig reports whether the signature carries a parameter of a
// configured proc type — the repo convention for "this code runs inside a
// sim proc under virtual time".
func procContextSig(pass *Pass, t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isProcType(pass.Cfg, sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// isProcType matches T or *T against Config.ProcTypes entries of the form
// "pkg/path.TypeName".
func isProcType(cfg *Config, t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	full := obj.Pkg().Path() + "." + obj.Name()
	for _, p := range cfg.ProcTypes {
		if p == full {
			return true
		}
	}
	return false
}

// checkProcBody reports OS-blocking calls in one proc-context body, both
// direct primitives and helpers whose summary chains reach one. Helpers
// that are themselves proc-context are skipped: their own bodies are
// checked (and suppressed, if blessed) at the declaration.
func checkProcBody(pass *Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.Info, call)
		if f == nil || f.Pkg() == nil || reported[call.Pos()] {
			return true
		}
		if term, ok := osBlockCall(f); ok {
			reported[call.Pos()] = true
			pass.Report(call.Pos(),
				"%s blocks on the OS inside sim-proc context; only virtual time may block here (Proc.Sleep, sim sync)",
				term)
			return true
		}
		if procContextSig(pass, f.Type()) {
			return true
		}
		if s := pass.Summaries.Lookup(f); s.Has(HazardOSBlock) {
			reported[call.Pos()] = true
			pass.Report(call.Pos(),
				"call to %s reaches OS-blocking %s (%s → %s) inside sim-proc context; only virtual time may block here",
				f.Name(), lastLink(s.Chains[HazardOSBlock]), f.Name(), s.Chain(HazardOSBlock))
		}
		return true
	})
}

// lastLink returns the terminal of a witness chain.
func lastLink(chain []string) string {
	if len(chain) == 0 {
		return "?"
	}
	return chain[len(chain)-1]
}
