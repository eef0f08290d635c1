package core

import (
	"fmt"
	"sort"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/rng"
	"cloudybench/internal/sim"
)

// ScanFunc intercepts read-only planner scans issued by suite operations.
// The differential harness installs one that runs both plans and compares;
// nil uses the node's planner directly.
type ScanFunc func(p *sim.Proc, n *node.Node, table string, col int, lo, hi engine.Value, limit int) ([]engine.Row, error)

// OpCtx is what one suite operation executes with: the routed node, the
// worker's deterministic random streams, the scan hook, and the worker's
// point-access scratch.
type OpCtx struct {
	P    *sim.Proc
	Node *node.Node
	Src  *rng.Source
	Dist rng.Dist

	scan ScanFunc
	// key holds the lookup key IntKey encoded last; row is where a base row
	// read through the *Into forms lands. Nothing below the op retains
	// either (DESIGN.md §15, "Who owns which buffer"), so ops allocate only
	// what the database keeps.
	key engine.Key
	row engine.Row
}

// rowScratchCols sizes the row scratch so no shipped schema's generator has
// to grow it (a generator that must grows into a fresh row instead).
const rowScratchCols = 8

// IntKey encodes a single-int primary key into the op's key scratch. The
// key is valid until the next IntKey call on this context.
func (c *OpCtx) IntKey(id int64) engine.Key {
	c.key = engine.AppendIntKey(c.key[:0], id)
	return c.key
}

// ScanRead runs a read-only range scan on the op's node through the
// engine planner, or through the configured override (the differential
// harness's dual-plan hook).
func (c *OpCtx) ScanRead(table string, col int, lo, hi engine.Value, limit int) ([]engine.Row, error) {
	if c.scan != nil {
		return c.scan(c.P, c.Node, table, col, lo, hi, limit)
	}
	return c.Node.ScanRead(c.P, table, col, lo, hi, limit, engine.PlanAuto)
}

// SuiteOp is one weighted operation of a workload suite. ReadOnly ops route
// to read replicas (and may reroute on failure) exactly like T3; writes pin
// to the current RW.
type SuiteOp struct {
	Name     string
	Weight   float64
	ReadOnly bool
	Run      func(c *OpCtx) error
}

// Suite is a workload family: a schema installer applied to every node of
// a deployment, and a weighted operation set the Runner drives exactly like
// the Table II mix. Registered suites (RegisterSuite) compose with the same
// scale, chaos, and partition machinery: every evaluator, gauntlet, and the
// differential harness picks them up by name. A suite only one experiment
// runs (the Figure 9 baselines) stays unregistered and is passed directly.
type Suite struct {
	Name string
	Desc string
	// Tables installs the suite's tables and secondary indexes on one
	// node's engine; it runs identically on the RW and every replica so
	// derived index state lines up across the cluster.
	Tables func(db *engine.DB, sf int, seed int64) error
	// Ops returns the suite's weighted operation set at the given scale.
	Ops func(sf int) []SuiteOp
}

var suiteReg = map[string]*Suite{}

// RegisterSuite adds a suite to the registry; duplicate names panic
// (registration is init-time wiring, not user input).
func RegisterSuite(st *Suite) {
	if st.Name == "" || st.Tables == nil || st.Ops == nil {
		panic("core: suite needs a name, a Tables installer, and an Ops set")
	}
	if _, dup := suiteReg[st.Name]; dup {
		panic(fmt.Sprintf("core: duplicate suite %q", st.Name))
	}
	suiteReg[st.Name] = st
}

// SuiteNames returns every registered suite name, sorted.
func SuiteNames() []string {
	names := make([]string, 0, len(suiteReg))
	for name := range suiteReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SuiteByName returns the registered suite or nil.
func SuiteByName(name string) *Suite { return suiteReg[name] }
