package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/check"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/metrics"
	"cloudybench/internal/report"
)

// partitionCells returns the partition gauntlet's SUT cells, one per SUT.
func (s *Session) partitionCells() []evaluator.PartitionResult {
	return sessionCells(s, perSUT(func(kind cdb.Kind) evaluator.PartitionConfig {
		return evaluator.PartitionConfig{Kind: kind, Span: s.sc.PartSpan, Concurrency: s.sc.PartConc, Seed: s.sc.Seed}
	}), evaluator.RunPartition)
}

// Partition runs every SUT through the partition gauntlet: a gray network
// partition cuts the primary off from the control plane and its replica
// (clients still reach it — the dangerous case), the profile's failure
// detector reacts with a lease-fenced promotion or an await-heal restart,
// and the resilient client rides through on backoff, breakers, and reroutes.
// The report contrasts the two repair architectures — quorum promotion
// restores writes in seconds while restart-in-place must wait the partition
// out — and shows each system's FPart penalty to the O-Score. Deterministic:
// the same scale and seed reproduce the report byte for byte.
func Partition(s *Session) (string, error) {
	sc, results := s.sc, s.partitionCells()
	tbl := report.NewTable("Partition gauntlet — detection, lease-fenced repair, resilient client",
		"System", "Verdict", "MTTD", "MTTR", "Unavail", "Commits", "Term", "Reroute", "Fenced", "Epoch", "dO")
	var detail strings.Builder
	for _, r := range results {
		kind := r.Kind
		// FPart enters the O-Score denominator: O' = O - SF*lg(FPart seconds).
		// dO is that per-system penalty (SF=1 here); "-" means the partition
		// never interrupted write service, so the published O-Score stands.
		fpart := metrics.FPartScore([]time.Duration{r.MTTR})
		deltaO := "-"
		if fpart > 0 {
			deltaO = fmt.Sprintf("%+.2f", -math.Log10(fpart.Seconds()))
		}
		tbl.AddRow(string(kind), check.PassFail(r.Passed()),
			report.Dur(r.MTTD), report.Dur(r.MTTR), report.Dur(r.Unavailable),
			fmt.Sprintf("%d", r.Commits),
			fmt.Sprintf("%d", r.Terminals),
			fmt.Sprintf("%d", r.Reroutes),
			fmt.Sprintf("%d", r.Fenced),
			fmt.Sprintf("%d", r.Epoch),
			deltaO)
		writeVerdicts(&detail, kind, r.Verdicts)
		for _, ev := range r.Timeline {
			if strings.HasPrefix(ev.Phase, "partition") || strings.HasPrefix(ev.Phase, "fence") ||
				strings.HasPrefix(ev.Phase, "RW' serving") || strings.HasPrefix(ev.Phase, "RW service restored") {
				fmt.Fprintf(&detail, "  %10v  %s\n", ev.At, ev.Phase)
			}
		}
	}
	suiteResults := sessionCells(s, partitionSuites(sc), evaluator.RunSuite)
	stbl := report.NewTable("Suite gauntlet — registered suites through the same gray partition (cdb4)",
		"Suite", "Verdict", "Commits", "Fenced", "Epoch", "IxPut", "IxDel")
	for _, r := range suiteResults {
		stbl.AddRow(r.Suite, check.PassFail(r.Passed()),
			fmt.Sprintf("%d", r.Commits),
			fmt.Sprintf("%d", r.Fenced),
			fmt.Sprintf("%d", r.Epoch),
			fmt.Sprintf("%d", r.IndexWALPuts),
			fmt.Sprintf("%d", r.IndexWALDels))
	}

	var b strings.Builder
	b.WriteString(tbl.String())
	b.WriteString(detail.String())
	b.WriteString("\n")
	b.WriteString(stbl.String())
	fmt.Fprintf(&b, "\nPartition schedule (per run): cut rw | {ctrl, ro0} at %v (gray: clients still reach rw), heal at %v\n",
		time.Duration(float64(sc.PartSpan)*0.25), time.Duration(float64(sc.PartSpan)*0.60))
	b.WriteString("dO = -SF*lg(FPart) — the partition-recovery term the MTTR adds to the O-Score denominator\n")
	return b.String(), nil
}

// partitionSuites are the partition experiment's suite cells, which the
// suites experiment shares: every registered suite rides the same gray
// partition on CDB4, so the fenced-write check judges secondary-index WAL
// records along with the heap records they derive from.
func partitionSuites(sc Scale) []evaluator.SuiteConfig {
	var cells []evaluator.SuiteConfig
	for _, suite := range core.SuiteNames() {
		cells = append(cells, evaluator.SuiteConfig{
			Suite: suite, Kind: cdb.CDB4,
			Span: sc.PartSpan, Concurrency: sc.PartConc, Seed: sc.Seed,
			Gauntlet: evaluator.SuitePartition,
		})
	}
	return cells
}
