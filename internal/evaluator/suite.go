package evaluator

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/core"
	"cloudybench/internal/storage"
)

// SuiteGauntlet selects the fault schedule a suite run composes with.
type SuiteGauntlet string

const (
	SuitePlain     SuiteGauntlet = ""          // fault-free
	SuiteChaos     SuiteGauntlet = "chaos"     // the standard chaos schedule
	SuitePartition SuiteGauntlet = "partition" // the gray partition: fail-over or await-heal restart, lease fencing
)

// SuiteConfig parameterizes one registered workload suite's run on one SUT.
// Suites compose with the same gauntlets as the Table II mix, so
// secondary-index maintenance is exercised under exactly the conditions the
// invariants judge.
type SuiteConfig struct {
	// Suite is a registered suite name (core.SuiteNames()).
	Suite string
	Kind  cdb.Kind
	// Concurrency is the client count (default 8).
	Concurrency int
	// Span is the traffic window (default 10s).
	Span time.Duration
	Seed int64
	// Gauntlet is the fault schedule to run under (default SuitePlain).
	Gauntlet SuiteGauntlet
}

// SuiteResult is one suite × SUT verdict sheet plus planner and index-WAL
// accounting.
type SuiteResult struct {
	Suite string
	Kind  cdb.Kind

	Commits   int64
	Errors    int64
	Terminals int64
	TPS       float64
	// Ops is the per-operation commit breakdown, sorted by op name.
	Ops []core.OpCount

	// IndexScans / FullScans total the planner's choices across every node
	// and table (the selectivity sweep shows up as a split between them).
	IndexScans int64
	FullScans  int64
	// IndexWALPuts / IndexWALDels count the RecIndexPut / RecIndexDelete
	// records across all node logs — proof that index maintenance flows
	// through the WAL (and therefore through fencing and replication).
	IndexWALPuts int64
	IndexWALDels int64

	Fenced int64
	Epoch  uint64

	Verdicts []check.Verdict
	Applied  []chaos.Applied
}

// Passed reports whether every invariant held.
func (r SuiteResult) Passed() bool { return check.AllPassed(r.Verdicts) }

// suiteSpec: no recorder — a suite is judged on final state and on its
// scans, IndexCoherent and ScanCoherent on every node and Convergence on
// every replica. Under the partition gauntlet the lease trio joins the
// sheet and the run holds until write service is back, so the
// post-fail-over index state is judged, not the mid-outage one.
func suiteSpec(cfg SuiteConfig) spec {
	suite := core.SuiteByName(cfg.Suite)
	if suite == nil {
		panic(fmt.Sprintf("evaluator: unknown suite %q (have %v)", cfg.Suite, core.SuiteNames()))
	}
	sp := spec{
		name: "suite/" + cfg.Suite, prof: cdb.ProfileFor(cfg.Kind), opts: fixed(cfg.Seed),
		clients: orDefault(cfg.Concurrency, 8), span: orDefault(cfg.Span, 10*time.Second),
		suite:      suite,
		resilient:  true,
		invariants: []invariant{indexCoherent, scanCoherent, convergence},
	}
	switch cfg.Gauntlet {
	case SuitePlain:
	case SuiteChaos:
		sp.schedule = chaos.Standard(sp.span)
	case SuitePartition:
		sp.schedule = PartitionSchedule(sp.span)
		sp.detector = true
		sp.await = awaitWriteService
		sp.invariants = append([]invariant{fenceTrio}, sp.invariants...)
	default:
		panic(fmt.Sprintf("evaluator: unknown suite gauntlet %q", cfg.Gauntlet))
	}
	return sp
}

// RunSuite drives one registered suite against one SUT, optionally under
// the chaos or partition gauntlet. Deterministic: the same config yields
// the same verdicts and metrics.
func RunSuite(cfg SuiteConfig) SuiteResult {
	rc := runCell(suiteSpec(cfg))
	d, col := rc.d, rc.col
	res := SuiteResult{
		Suite:     cfg.Suite,
		Kind:      cfg.Kind,
		Commits:   col.Commits(),
		Errors:    col.Errors(),
		Terminals: col.Terminals(),
		TPS:       col.TPS(0, rc.spec.span),
		Ops:       col.OpCounts(),
		Fenced:    d.Fence.Rejects(),
		Epoch:     d.Fence.Epoch(),
		Verdicts:  rc.verdicts,
		Applied:   rc.inj.Applied(),
	}
	for _, n := range d.Nodes() {
		tables := n.DB.Tables()
		for _, name := range slices.Sorted(maps.Keys(tables)) {
			ix, full := tables[name].ScanStats()
			res.IndexScans += ix
			res.FullScans += full
		}
		for recs := range n.DB.Log().Chunks() {
			for i := range recs {
				switch recs[i].Type {
				case storage.RecIndexPut:
					res.IndexWALPuts++
				case storage.RecIndexDelete:
					res.IndexWALDels++
				}
			}
		}
	}
	return res
}
