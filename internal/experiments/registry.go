package experiments

import (
	"fmt"
	"slices"
	"sort"
)

// registry maps experiment ids to descriptions and drivers. A driver
// regenerates one paper artifact in a session, returning its rendered
// report, or the error that kept it from writing its files.
var registry = map[string]struct {
	Desc string
	Run  func(*Session) (string, error)
}{
	"f5":        {"Figure 5 — transaction processing TPS across SF/mix/concurrency", Figure5},
	"t5":        {"Table V — P-Score with detailed resource cost", TableV},
	"f6":        {"Figure 6 — elasticity: TPS, total cost, E1-Score", Figure6},
	"t6":        {"Table VI — scaling time and cost during autoscaling", TableVI},
	"t7":        {"Table VII — multi-tenancy TPS, resources, cost, T-Score", TableVII},
	"t8":        {"Table VIII — fail-over F-Score and R-Score", TableVIII},
	"f7":        {"Figure 7 — CDB4 fail-over timeline", Figure7},
	"lag":       {"§III-F — replication lag time across IUD mixes", LagTable},
	"t9":        {"Table IX — overall PERFECT scores (with actual-cost variants)", TableIX},
	"f8":        {"Figure 8 — buffer size sweep for RDS/CDB1/CDB4", Figure8},
	"f9":        {"Figure 9 — CPU allocation vs SysBench and TPC-C on CDB3", Figure9},
	"ablations": {"Ablations — parallel replay, remote buffer pool, redo pushdown", Ablations},
	"chaos":     {"Chaos gauntlet — ACID invariants under injected faults, all SUTs", Chaos},
	"crash":     {"Crash gauntlet — WAL redo/undo recovery, torn-tail kills, and the durability/no-resurrection verdicts, all SUTs", Crash},
	"oltp":      {"Stage profile — traced OLTP run with per-SUT virtual-time stage breakdown (honours --trace)", OLTPTrace},
	"partition": {"Partition gauntlet — MTTD/MTTR, lease fencing, and resilient-client metrics under a gray partition, all SUTs", Partition},
	"suites":    {"Scenario suites — registered workload families (indexed range scan, time-series, LOB) on every SUT, with selectivity sweep and chaos/partition composition", Suites},
	"soak":      {"Soak — multi-day longitudinal run per SUT with windowed telemetry, rolling chaos, tenant churn, in-flight invariant sweeps, and the CSV/Markdown comparison artifact (honours --artifacts)", Soak},
}

// IDs returns all experiment ids in sorted order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns an experiment's description.
func Describe(id string) (string, bool) {
	e, ok := registry[id]
	if !ok {
		return "", false
	}
	return e.Desc, true
}

// Run executes one experiment by id at the given scale, computing every
// cell it reports.
func Run(id string, sc Scale) (string, error) { return NewSession(sc).Run(id) }

// A Session runs experiments at one scale for one invocation. Artifacts
// are views of one another's cells (Table V prices Figure 5's, Table IX
// composes four other tables'), so the session memoizes every cell it runs
// and computes each at most once, whichever artifact asks first. A session
// is used from one goroutine; it has no lock.
type Session struct {
	sc    Scale
	cells map[any]any // cell key -> result, filled by sessionCells
}

// NewSession starts a session at the given scale.
func NewSession(sc Scale) *Session { return &Session{sc: sc, cells: map[any]any{}} }

// sessionCells returns run(k) for every key, in key order. It sends through
// runCells, once each, only the keys the session has not run, and memoizes
// their results; those are shared between artifacts, so callers only read
// them. A key's type names its grid, so two grids' keys never collide.
// sessionCells is the only caller of runCells.
func sessionCells[K comparable, R any](s *Session, keys []K, run func(K) R) []R {
	var todo []K
	for _, k := range keys {
		if _, ok := s.cells[k]; !ok && !slices.Contains(todo, k) {
			todo = append(todo, k)
		}
	}
	for i, r := range runCells(len(todo), func(i int) R { return run(todo[i]) }) {
		s.cells[todo[i]] = r
	}
	out := make([]R, len(keys))
	for i, k := range keys {
		out[i] = s.cells[k].(R)
	}
	return out
}

// Run executes one experiment by id in the session.
func (s *Session) Run(id string) (string, error) {
	e, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return e.Run(s)
}
