package evaluator

import (
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/chaos"
	"cloudybench/internal/check"
	"cloudybench/internal/cluster"
)

// PartitionConfig parameterizes one SUT's run through the partition
// gauntlet: a gray network partition (clients still reach the old primary,
// the control plane and the replica do not), the profile's failure detector
// reacting with a lease-fenced fail-over (or await-heal restart), and the
// resilient client riding through on backoff, breakers, and reroutes.
type PartitionConfig struct {
	Kind cdb.Kind
	SF   int
	// Concurrency is the client count (default 12).
	Concurrency int
	// Span is the traffic window the partition schedule is compiled onto
	// (default 20s: cut at 25%, heal at 60%).
	Span time.Duration
	Seed int64
}

// PartitionSchedule is the canonical partition gauntlet scaled onto a run
// window: at 25% of the span the primary is cut from the control plane and
// the replica — but NOT from clients (a gray partition: the old primary
// keeps taking writes, which is exactly what the lease must fence). The cut
// heals at 60%.
func PartitionSchedule(span time.Duration) chaos.Schedule {
	frac := func(f float64) time.Duration { return time.Duration(float64(span) * f) }
	groupA, groupB := []string{"rw"}, []string{"ctrl", "ro0"}
	return chaos.Schedule{Events: []chaos.Event{
		{At: frac(0.25), Kind: chaos.Partition, GroupA: groupA, GroupB: groupB},
		{At: frac(0.60), Kind: chaos.Heal, GroupA: groupA, GroupB: groupB},
	}}
}

// PartitionResult is one SUT's partition-tolerance report card.
type PartitionResult struct {
	Kind cdb.Kind

	BaselineTPS float64
	// MTTD is detection: partition injection until the detector suspects
	// the primary.
	MTTD time.Duration
	// MTTR is repair: partition injection until write service is restored
	// (promotion completing, or the healed primary restarting).
	MTTR time.Duration
	// Unavailable totals the whole-second buckets inside the observation
	// window whose commit rate fell below the availability threshold.
	Unavailable time.Duration

	Commits   int64
	Errors    int64
	Terminals int64 // transactions abandoned after the retry budget
	Reroutes  int64 // reads served by a fallback node
	Fenced    int64 // stale-epoch commits refused by the lease
	Epoch     uint64

	Verdicts []check.Verdict
	Timeline []cluster.PhaseEvent
	Applied  []chaos.Applied
}

// Passed reports whether every invariant held.
func (r PartitionResult) Passed() bool { return check.AllPassed(r.Verdicts) }

// partitionSpec: the recorder sits on the initial RW, so history is judged up
// to the fail-over; recovery may land past the traffic window, so the run
// holds until write service is back.
func partitionSpec(cfg PartitionConfig) spec {
	span := orDefault(cfg.Span, 20*time.Second)
	return spec{
		name: "partition", kind: cfg.Kind, sf: cfg.SF, seed: cfg.Seed,
		clients: orDefault(cfg.Concurrency, 12), span: span, mix: gauntletMix,
		schedule:   PartitionSchedule(span),
		observe:    observePrimary,
		resilient:  true,
		detector:   true,
		await:      awaitWriteService,
		invariants: []invariant{fenceTrio, conservation, readCommitted, convergence},
	}
}

// RunPartition drives one SUT through the partition gauntlet and measures
// detection, repair, unavailability, and the lease invariants. Deterministic:
// the same config yields the same verdicts, metrics, and timeline.
func RunPartition(cfg PartitionConfig) PartitionResult {
	return partitionResult(runGauntlet(partitionSpec(cfg)))
}

func partitionResult(rc *run) PartitionResult {
	d, col, injectAt := rc.d, rc.col, rc.outageAt
	res := PartitionResult{
		Kind:        rc.spec.kind,
		BaselineTPS: col.TPS(0, injectAt),
		Commits:     col.Commits(),
		Errors:      col.Errors(),
		Terminals:   col.Terminals(),
		Reroutes:    rc.reroutes,
		Fenced:      d.Fence.Rejects(),
		Epoch:       d.Fence.Epoch(),
		Verdicts:    rc.verdicts,
		Timeline:    d.Cluster.Timeline(),
		Applied:     rc.inj.Applied(),
	}

	// Detection and repair, from the cluster's own marks.
	if at := firstMarkAfter(res.Timeline, injectAt, "partition: RW suspected"); at > 0 {
		res.MTTD = at - injectAt
	}
	if at := restoredAfter(res.Timeline, injectAt); at > 0 {
		res.MTTR = at - injectAt
	}

	// Unavailability: whole-second buckets below a small fraction of the
	// baseline (raw zero would be fooled by stragglers draining lock
	// queues), counted across the traffic window after injection.
	threshold := max(res.BaselineTPS*0.05, 2)
	for _, b := range col.TPSBuckets(injectAt, rc.spec.span) {
		if b < threshold {
			res.Unavailable += time.Second
		}
	}
	return res
}
