package evaluator

import (
	"fmt"
	"testing"
	"time"

	"cloudybench/internal/cdb"
)

// quickPartition runs a short gauntlet.
func quickPartition(kind cdb.Kind) PartitionResult {
	return RunPartition(PartitionConfig{Kind: kind, Span: 10 * time.Second, Concurrency: 6, Seed: 7})
}

// partitionFingerprint flattens a result into a comparable string: every
// metric, verdict, timeline mark, and applied-fault timestamp.
func partitionFingerprint(r PartitionResult) string {
	s := fmt.Sprintf("%s c=%d e=%d t=%d rr=%d f=%d ep=%d mttd=%v mttr=%v un=%v tps=%.6f|",
		r.Kind, r.Commits, r.Errors, r.Terminals, r.Reroutes, r.Fenced, r.Epoch,
		r.MTTD, r.MTTR, r.Unavailable, r.BaselineTPS)
	for _, v := range r.Verdicts {
		s += fmt.Sprintf("%s=%v/%d;", v.Name, v.Passed, v.Checked)
	}
	for _, ev := range r.Timeline {
		s += fmt.Sprintf("%v:%s;", ev.At, ev.Phase)
	}
	for _, a := range r.Applied {
		s += fmt.Sprintf("%v:%s:%s;", a.At, a.Kind, a.Target)
	}
	return s
}

// TestPartitionPromoteArchitectureFailsOverAndFences: CDB4's detector must
// promote the reachable replica under an advanced lease epoch, fence the
// still-writing old primary, and keep every invariant green.
func TestPartitionPromoteArchitectureFailsOverAndFences(t *testing.T) {
	r := quickPartition(cdb.CDB4)
	if !r.Passed() {
		for _, v := range r.Verdicts {
			t.Errorf("%s: %s", v.Name, v)
		}
	}
	if r.MTTD <= 0 {
		t.Error("partition never detected")
	}
	if r.MTTR <= 0 {
		t.Error("write service never restored")
	}
	if r.Epoch != 2 {
		t.Errorf("lease epoch = %d, want 2 after one fail-over", r.Epoch)
	}
	if r.Fenced == 0 {
		t.Error("gray partition produced no fenced writes: the old primary was never tested")
	}
	if r.Commits == 0 {
		t.Error("no commits")
	}
}

// TestPartitionRestartArchitectureWaitsForHeal: RDS has no promotable
// replica, so repair must wait out the partition and restart in place —
// visibly slower than the promote architectures.
func TestPartitionRestartArchitectureWaitsForHeal(t *testing.T) {
	rds := quickPartition(cdb.RDS)
	if !rds.Passed() {
		for _, v := range rds.Verdicts {
			t.Errorf("%s: %s", v.Name, v)
		}
	}
	if rds.Epoch != 1 {
		t.Errorf("RDS lease epoch = %d, want 1 (no promotion)", rds.Epoch)
	}
	if rds.MTTR <= 0 {
		t.Fatal("RDS never restored write service")
	}
	cdb4 := quickPartition(cdb.CDB4)
	if rds.MTTR <= cdb4.MTTR*2 {
		t.Errorf("RDS MTTR %v not clearly worse than CDB4's %v — restart-in-place should dominate", rds.MTTR, cdb4.MTTR)
	}
}

// TestPartitionRunIsDeterministic demands the whole report — metrics,
// verdicts, timeline, fault log — be identical across two same-seed runs.
func TestPartitionRunIsDeterministic(t *testing.T) {
	a := partitionFingerprint(quickPartition(cdb.CDB1))
	b := partitionFingerprint(quickPartition(cdb.CDB1))
	if a != b {
		t.Fatalf("partition run diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestPartitionThatNeverHealsEndsTheRun: on RDS (no promotable replica) a
// gray partition with no heal leaves a replication backlog that can never
// drain. The harness's waits are bounded in virtual time, so the run must
// return — with Convergence failing — instead of spinning the host forever.
func TestPartitionThatNeverHealsEndsTheRun(t *testing.T) {
	sp := partitionSpec(PartitionConfig{Kind: cdb.RDS, Span: 12 * time.Second, Concurrency: 6, Seed: 7})
	sp.schedule.Events = sp.schedule.Events[:1] // the cut, without its heal
	r := partitionResult(runCell(sp))
	if r.Passed() {
		t.Fatal("verdict sheet passed although the replica was cut off for good")
	}
	for _, v := range r.Verdicts {
		if v.Name == "convergence/ro0" && !v.Passed {
			return
		}
	}
	t.Fatalf("expected convergence/ro0 to fail, verdicts: %v", r.Verdicts)
}
