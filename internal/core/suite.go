package core

import (
	"fmt"
	"sort"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/rng"
	"cloudybench/internal/sim"
)

// OpCtx is what one suite operation executes with: the routed node, the
// worker's deterministic random streams, and the worker's point-access
// scratch.
type OpCtx struct {
	P    *sim.Proc
	Node *node.Node
	Src  *rng.Source
	Dist rng.Dist

	// key holds the lookup key IntKey encoded last; row is where a base row
	// read through the *Into forms lands. Nothing below the op retains
	// either (DESIGN.md §15, "Who owns which buffer"), so ops allocate only
	// what the database keeps.
	key engine.Key
	row engine.Row
	// rows points at the runner's row slab (see carveRow), and strs is the
	// worker's string slab (see Filler).
	rows *[]engine.Value
	strs engine.StrSlab
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

// rowSlabChunk sizes one block of a runner's row slab (about 700 rows of
// the shipped schemas), so a write transaction starts a new block well
// under once per hundred.
const rowSlabChunk = 4096

// carveRow returns an empty row with room for n values, carved from the
// runner's row slab: appending up to n values fills the slab in place. It
// is for a write to hand the table, which keeps the row by reference. Rows
// are immutable once handed to the table, so rows may share a slab chunk; a
// chunk is collected once every row carved from it has been displaced. The
// workers of a runner take turns in one simulation, so they share the slab,
// and a runner leaves one partly used chunk behind, not one per worker.
func (c *OpCtx) carveRow(n int) engine.Row {
	if c.rows == nil || cap(*c.rows)-len(*c.rows) < n {
		c.growRows(n)
	}
	s := *c.rows
	off := len(s)
	*c.rows = s[:off+n]
	return s[off : off : off+n]
}

// growRows starts the next row slab chunk, with room for n values at least.
// A context built outside a runner gets a slab of its own here.
//
//detlint:coldpath
//go:noinline
func (c *OpCtx) growRows(n int) {
	if c.rows == nil {
		c.rows = new([]engine.Value)
	}
	*c.rows = make([]engine.Value, 0, max(n, rowSlabChunk))
}

// KeepRow returns a copy of r carved from the runner's row slab (see
// carveRow), for a write that starts from a row it read.
func (c *OpCtx) KeepRow(r engine.Row) engine.Row {
	return append(c.carveRow(len(r)), r...)
}

// Filler returns prefix followed by n letters drawn from c.Src, as a string
// carved from the worker's string slab. It draws exactly n values.
func (c *OpCtx) Filler(prefix string, n int) engine.Value {
	c.Src.FillLetters(c.strs.Carve(prefix, n))
	return c.strs.Str()
}

// ScanRead runs a read-only range scan on the op's node through the
// engine planner (node.Node.ScanRead, which cross-checks a sample of them).
func (c *OpCtx) ScanRead(table string, col int, lo, hi engine.Value, limit int) ([]engine.Row, error) {
	return c.Node.ScanRead(c.P, table, col, lo, hi, limit)
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
// scale, chaos, and partition machinery: every evaluator and gauntlet picks
// them up by name. A suite only one experiment runs (the Figure 9
// baselines) stays unregistered and is passed directly.
type Suite struct {
	Name string
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
