package experiments

import (
	"fmt"
	"strings"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/check"
	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/report"
	"cloudybench/internal/sim"
)

// suiteGrid enumerates the experiment's cells in rendering order: every
// registered suite on every SUT plain, then every suite under the chaos
// gauntlet (CDB1), then the partition experiment's suite cells.
func suiteGrid(sc Scale) []evaluator.SuiteConfig {
	var cells []evaluator.SuiteConfig
	add := func(suite string, kind cdb.Kind, g evaluator.SuiteGauntlet) {
		cells = append(cells, evaluator.SuiteConfig{
			Suite: suite, Kind: kind,
			Span: sc.SuiteSpan, Concurrency: sc.SuiteConc, Seed: sc.Seed,
			Gauntlet: g,
		})
	}
	for _, suite := range core.SuiteNames() {
		for _, kind := range SUTs {
			add(suite, kind, evaluator.SuitePlain)
		}
	}
	for _, suite := range core.SuiteNames() {
		add(suite, cdb.CDB1, evaluator.SuiteChaos)
	}
	return append(cells, partitionSuites(sc)...)
}

// suiteCells returns the suites experiment's cells, in suiteGrid's order.
func (s *Session) suiteCells() []evaluator.SuiteResult {
	return sessionCells(s, suiteGrid(s.sc), evaluator.RunSuite)
}

// Suites runs every registered workload suite (indexed range scans,
// append-heavy time-series, large-object read/write) on every SUT, then
// re-runs each suite composed with the chaos and partition gauntlets —
// the registry's pitch is that a workload family is defined once and
// composes with every evaluation mode. The report shows per-suite
// throughput, the planner's index/full-scan split, index WAL traffic, and
// the invariant verdicts (IndexCoherent on every node), plus a selectivity
// sweep demonstrating the planner's cliff at the index-scan fraction
// threshold. Deterministic: the same scale and seed reproduce the report
// byte for byte.
func Suites(s *Session) (string, error) {
	cells, results := suiteGrid(s.sc), s.suiteCells()

	var b strings.Builder
	tbl := report.NewTable("Scenario suites — registered workload families on every SUT",
		"Suite", "System", "Verdict", "Commits", "Errors", "TPS", "IdxScan", "FullScan", "IxPut", "IxDel")
	var detail strings.Builder
	for i, r := range results {
		if cells[i].Gauntlet != evaluator.SuitePlain {
			continue
		}
		tbl.AddRow(r.Suite, string(r.Kind), check.PassFail(r.Passed()),
			fmt.Sprintf("%d", r.Commits),
			fmt.Sprintf("%d", r.Errors),
			report.F(r.TPS),
			fmt.Sprintf("%d", r.IndexScans),
			fmt.Sprintf("%d", r.FullScans),
			fmt.Sprintf("%d", r.IndexWALPuts),
			fmt.Sprintf("%d", r.IndexWALDels))
		if r.Kind == cdb.CDB1 {
			fmt.Fprintf(&detail, "\n%s op mix (cdb1):", r.Suite)
			for _, oc := range r.Ops {
				fmt.Fprintf(&detail, " %s=%d", oc.Op, oc.N)
			}
			detail.WriteString("\n")
			for _, v := range r.Verdicts {
				fmt.Fprintf(&detail, "  %-22s %s\n", v.Name, v)
			}
		}
	}
	b.WriteString(tbl.String())
	b.WriteString(detail.String())

	b.WriteString("\n")
	b.WriteString(selectivitySweep(s.sc.Seed))

	gnt := report.NewTable("Suite x gauntlet composition — same suites under chaos (cdb1) and a gray partition (cdb4)",
		"Suite", "Gauntlet", "Verdict", "Commits", "Faults", "Fenced", "Epoch", "IxPut", "IxDel")
	for i, r := range results {
		if cells[i].Gauntlet == evaluator.SuitePlain {
			continue
		}
		gnt.AddRow(r.Suite, string(cells[i].Gauntlet), check.PassFail(r.Passed()),
			fmt.Sprintf("%d", r.Commits),
			fmt.Sprintf("%d", len(r.Applied)),
			fmt.Sprintf("%d", r.Fenced),
			fmt.Sprintf("%d", r.Epoch),
			fmt.Sprintf("%d", r.IndexWALPuts),
			fmt.Sprintf("%d", r.IndexWALDels))
	}
	b.WriteString(gnt.String())
	b.WriteString("Index maintenance flows through the WAL (IxPut/IxDel), so fenced writes refuse index\n")
	b.WriteString("records with their data and IndexCoherent holds on every node after fail-over.\n")
	return b.String(), nil
}

// selectivitySweep renders the planner's cliff: the idx-range suite's table
// is queried with progressively wider group ranges (domain: 100 groups) and
// the planner switches from index scan to full scan once the estimated
// selected fraction exceeds engine.IndexScanMaxFraction. Page counts show
// why — past the cliff the index's page touches approach the sequential
// scan's, without its locality.
func selectivitySweep(seed int64) string {
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db := engine.NewDB(s)
	suite := core.SuiteByName(core.SuiteIdxRange)
	if err := suite.Tables(db, 1, seed); err != nil {
		panic("experiments: selectivity sweep schema: " + err.Error())
	}
	tbl := db.Table(core.TableIdxItems)
	group := tbl.Schema.ColIndex("II_GROUP")

	out := report.NewTable(
		fmt.Sprintf("Selectivity sweep — planner cliff at fraction %.2f (idx-range suite, sf 1)",
			engine.IndexScanMaxFraction),
		"Width", "Rows", "Frac", "Plan", "Pages", "ScanPages")
	scanPages := tbl.Pages() // a full scan touches every page of the table
	live := tbl.LiveRows()
	for _, width := range []int64{1, 2, 5, 10, 25, 50, 100} {
		res, err := tbl.SelectRange(group, engine.Int(0), engine.Int(width-1), 0)
		if err != nil {
			panic("experiments: selectivity sweep: " + err.Error())
		}
		out.AddRow(
			fmt.Sprintf("%d", width),
			fmt.Sprintf("%d", len(res.Rows)),
			fmt.Sprintf("%.2f", float64(len(res.Rows))/float64(live)),
			res.Plan.String(),
			fmt.Sprintf("%d", len(res.Pages)),
			fmt.Sprintf("%d", scanPages))
	}
	return out.String()
}
