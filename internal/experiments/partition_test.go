package experiments

import (
	"flag"
	"strings"
	"testing"

	"cloudybench/internal/cdb"
	"cloudybench/internal/evaluator"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// TestPartitionGolden pins the rendered partition report byte for byte: the
// report feeds EXPERIMENTS.md verbatim, and any drift in metrics, verdicts,
// or timeline marks under the fixed seed is a behaviour change. Regenerate
// deliberately with -update.
func TestPartitionGolden(t *testing.T) {
	sess := shared(t, mini)
	read(sess.partitionCells)
	read(sess.suiteCells) // holds the partition experiment's suite cells
	out, err := Partition(sess)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "partition", out)
}

// TestPartitionContrastsRepairArchitectures: the experiment's headline —
// promote architectures restore writes during the partition, while RDS's
// restart-in-place waits for the heal — must be visible in the rendered
// report and the raw results.
func TestPartitionContrastsRepairArchitectures(t *testing.T) {
	sess := shared(t, tiny)
	results := read(sess.partitionCells)
	read(sess.suiteCells) // holds the partition experiment's suite cells
	out, err := Partition(sess)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(SUTs) {
		t.Fatalf("results = %d, want %d", len(results), len(SUTs))
	}
	byKind := map[cdb.Kind]evaluator.PartitionResult{}
	for _, r := range results {
		if !r.Passed() {
			for _, v := range r.Verdicts {
				t.Errorf("%s %s: %s", r.Kind, v.Name, v)
			}
		}
		byKind[r.Kind] = r
	}
	rds, cdb4 := byKind[cdb.RDS], byKind[cdb.CDB4]
	if rds.Epoch != 1 {
		t.Errorf("RDS epoch = %d, want 1 (restart model never advances the lease)", rds.Epoch)
	}
	if cdb4.Epoch != 2 {
		t.Errorf("CDB4 epoch = %d, want 2 (one lease-fenced promotion)", cdb4.Epoch)
	}
	if rds.MTTR <= cdb4.MTTR {
		t.Errorf("RDS MTTR %v <= CDB4 MTTR %v: restart-in-place should be visibly slower", rds.MTTR, cdb4.MTTR)
	}
	for _, want := range []string{"rds", "cdb4", "Partition schedule", "dO ="} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
