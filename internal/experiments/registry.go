package experiments

import (
	"fmt"
	"sort"
)

// Runner regenerates one paper artifact in a session, returning its
// rendered report, or the error that kept it from writing its files.
type Runner func(s *Session) (string, error)

// registry maps experiment ids to drivers and descriptions.
var registry = map[string]struct {
	Desc string
	Run  Runner
}{
	"f5": {"Figure 5 — transaction processing TPS across SF/mix/concurrency",
		func(s *Session) (string, error) { out, _ := Figure5(s); return out, nil }},
	"t5": {"Table V — P-Score with detailed resource cost",
		func(s *Session) (string, error) { out, _ := TableV(s); return out, nil }},
	"f6": {"Figure 6 — elasticity: TPS, total cost, E1-Score",
		func(s *Session) (string, error) { return Figure6(s), nil }},
	"t6": {"Table VI — scaling time and cost during autoscaling",
		func(s *Session) (string, error) { out, _ := TableVI(s); return out, nil }},
	"t7": {"Table VII — multi-tenancy TPS, resources, cost, T-Score",
		func(s *Session) (string, error) { return TableVII(s), nil }},
	"t8": {"Table VIII — fail-over F-Score and R-Score",
		func(s *Session) (string, error) { return TableVIII(s), nil }},
	"f7": {"Figure 7 — CDB4 fail-over timeline",
		func(s *Session) (string, error) { out, _ := Figure7(s); return out, nil }},
	"lag": {"§III-F — replication lag time across IUD mixes",
		func(s *Session) (string, error) { out, _ := LagTable(s); return out, nil }},
	"t9": {"Table IX — overall PERFECT scores (with actual-cost variants)",
		func(s *Session) (string, error) { out, _ := TableIX(s); return out, nil }},
	"f8": {"Figure 8 — buffer size sweep for RDS/CDB1/CDB4",
		func(s *Session) (string, error) { out, _ := Figure8(s.sc); return out, nil }},
	"f9": {"Figure 9 — CPU allocation vs SysBench and TPC-C on CDB3",
		func(s *Session) (string, error) { out, _ := Figure9(s.sc); return out, nil }},
	"ablations": {"Ablations — parallel replay, remote buffer pool, redo pushdown",
		func(s *Session) (string, error) { return Ablations(s.sc), nil }},
	"chaos": {"Chaos gauntlet — ACID invariants under injected faults, all SUTs",
		func(s *Session) (string, error) { out, _ := Chaos(s.sc); return out, nil }},
	"crash": {"Crash gauntlet — WAL redo/undo recovery, torn-tail kills, and the durability/no-resurrection verdicts, all SUTs",
		func(s *Session) (string, error) { out, _ := Crash(s.sc); return out, nil }},
	"oltp": {"Stage profile — traced OLTP run with per-SUT virtual-time stage breakdown (honours --trace)",
		func(s *Session) (string, error) { out, _, err := OLTPTrace(s.sc); return out, err }},
	"partition": {"Partition gauntlet — MTTD/MTTR, lease fencing, and resilient-client metrics under a gray partition, all SUTs",
		func(s *Session) (string, error) { out, _ := Partition(s); return out, nil }},
	"suites": {"Scenario suites — registered workload families (indexed range scan, time-series, LOB) on every SUT, with selectivity sweep and chaos/partition composition",
		func(s *Session) (string, error) { out, _ := Suites(s); return out, nil }},
	"soak": {"Soak — multi-day longitudinal run per SUT with windowed telemetry, rolling chaos, tenant churn, in-flight invariant sweeps, and the CSV/Markdown comparison artifact (honours --artifacts)",
		func(s *Session) (string, error) { out, _, err := Soak(s.sc); return out, err }},
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
// runCells only the keys the session has not run, and memoizes their
// results; those are shared between artifacts, so callers only read them. A
// key's type names its grid, so two grids' keys never collide.
func sessionCells[K comparable, R any](s *Session, keys []K, run func(K) R) []R {
	var todo []K
	for _, k := range keys {
		if _, ok := s.cells[k]; !ok {
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
