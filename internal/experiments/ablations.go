package experiments

import (
	"fmt"
	"time"

	"cloudybench/internal/cdb"
	"cloudybench/internal/core"
	"cloudybench/internal/evaluator"
	"cloudybench/internal/report"
)

// Ablations isolate the architectural mechanisms the paper credits for
// each SUT's behaviour, by re-deploying a profile with exactly one
// mechanism changed:
//
//   - ab-replay: CDB3 with parallel replay lanes vs forced-sequential —
//     the paper attributes CDB3's low lag to parallel log replay (§III-F).
//   - ab-rembuf: CDB4 with vs without its remote buffer pool — the paper
//     credits the remote pool for CDB4's throughput and recovery.
//   - ab-redo: CDB1 with redo pushdown vs classic dirty-page writeback —
//     the log-is-the-database design the paper contrasts with RDS.

// ablationCell keys an ablation run: a section (0 replay, 1 remote buffer,
// 2 redo pushdown) and a variant, 0 or 1, of its profile.
type ablationCell struct{ section, variant int }

// ablationRun is one ablation variant's measurement: lag for the replay
// section, oltp for the other two.
type ablationRun struct {
	lag  evaluator.LagResult
	oltp evaluator.OLTPResult
}

// runAblation runs one variant: CDB3's write-heavy lag cell on one replay
// lane, then on the profile's; CDB4 with its remote buffer pool, then
// without, on a 16 MB local buffer so the second tier actually matters (at
// SF1 the stock 10 GB local buffer absorbs everything); CDB1 with redo
// pushdown, then with dirty-page writeback and frequent checkpoints, on an
// insert+delete mix that dirties pages across the whole key space and
// starts cold, so the buffer fills with freshly dirtied pages and eviction
// writeback engages within the measurement window.
func runAblation(sc Scale, k ablationCell) ablationRun {
	switch k.section {
	case 0:
		prof := cdb.ProfileFor(cdb.CDB3)
		if k.variant == 0 {
			prof.Replication.Lanes = 1
		}
		return ablationRun{lag: evaluator.RunLagAblation(prof, evaluator.LagConfig{
			IUD: [3]float64{40, 50, 10}, Concurrency: sc.LagConc, Duration: sc.LagDuration, Seed: sc.Seed,
		})}
	case 1:
		prof := cdb.ProfileFor(cdb.CDB4)
		if k.variant == 1 {
			prof.RemoteBufBytes = 0
		}
		return ablationRun{oltp: evaluator.RunOLTPAblation(prof, ablationOLTP(sc, core.MixReadWrite, 16<<20), true)}
	default:
		prof := cdb.ProfileFor(cdb.CDB1)
		prof.RedoPushdown = k.variant == 0
		if k.variant == 1 {
			prof.CheckpointEvery = 2 * time.Second // classic engines must also checkpoint frequently
		}
		return ablationRun{oltp: evaluator.RunOLTPAblation(prof, ablationOLTP(sc, core.Mix{T1: 50, T4: 50}, 0), false)}
	}
}

// ablationReplay compares CDB3's replication lag with 1 vs N replay lanes.
func ablationReplay(seq, par evaluator.LagResult) string {
	tbl := report.NewTable("Ablation — parallel log replay (CDB3, write-heavy)",
		"Replay", "Mean update lag")
	tbl.AddRow("sequential (1 lane)", report.Dur(seq.UpdateLag))
	tbl.AddRow("parallel (profile lanes)", report.Dur(par.UpdateLag))
	return tbl.String() + fmt.Sprintf("\nParallel replay cuts lag %.1fx.\n",
		float64(seq.UpdateLag)/float64(par.UpdateLag))
}

// ablationRemoteBuffer compares CDB4's transaction latency with and
// without the shared remote buffer pool. Throughput stays CPU-bound either
// way at this scale; what the remote pool buys is the *miss path*: an RDMA
// round trip (~tens of µs) instead of a storage-service fetch (~600 µs),
// which shows up directly in p50 latency when the local buffer is small.
func ablationRemoteBuffer(with, without evaluator.OLTPResult) string {
	tbl := report.NewTable("Ablation — remote buffer pool (CDB4, 16MB local buffer, RW)",
		"Configuration", "TPS", "p50 latency", "p99 latency")
	tbl.AddRow("local + remote pool (RDMA)", report.F(with.TPS),
		report.Dur(with.P50), report.Dur(with.P99))
	tbl.AddRow("local only (misses go to storage)", report.F(without.TPS),
		report.Dur(without.P50), report.Dur(without.P99))
	ratio := float64(without.P50) / float64(with.P50)
	return tbl.String() + fmt.Sprintf("\nServing misses from the remote pool cuts p50 latency %.1fx.\n", ratio)
}

// ablationRedoPushdown compares CDB1 with redo pushdown against a variant
// that writes dirty pages back to storage like a classic engine. The
// delete-heavy mix dirties pages across the whole table, so writeback and
// checkpoints fight foreground traffic for the storage channel.
func ablationRedoPushdown(with, without evaluator.OLTPResult) string {
	tbl := report.NewTable("Ablation — redo pushdown (CDB1, insert+delete mix)",
		"Configuration", "TPS", "p50 latency", "p99 latency")
	tbl.AddRow("redo pushed to storage (no writeback)", report.F(with.TPS),
		report.Dur(with.P50), report.Dur(with.P99))
	tbl.AddRow("dirty-page writeback + checkpoints", report.F(without.TPS),
		report.Dur(without.P50), report.Dur(without.P99))
	note := "\nAt this scale CDB1 stays compute-bound either way: the shared storage\n" +
		"service absorbs writeback and checkpoint traffic without throttling\n" +
		"foreground work — redo pushdown's advantage appears once the storage\n" +
		"channel, not the CPU, is the binding constraint (see Figure 8's SF10\n" +
		"sweep, where the miss path dominates).\n"
	return tbl.String() + note
}

// ablationOLTP is the OLTP ablations' cell: 64 clients on one RW node for
// the scale's warm-up plus measured window.
func ablationOLTP(sc Scale, mix core.Mix, buffer int64) evaluator.OLTPConfig {
	return evaluator.OLTPConfig{
		Mix: mix, Concurrency: 64, Replicas: evaluator.NoReplicas, BufferBytes: buffer,
		Warmup: sc.Warmup, Measure: sc.Measure, Seed: sc.Seed,
	}
}

// ablationCells returns the ablations' six runs, both variants of each
// section (section-major), so all six can occupy cores at once.
func (s *Session) ablationCells() []ablationRun {
	var keys []ablationCell
	for section := range 3 {
		keys = append(keys, ablationCell{section, 0}, ablationCell{section, 1})
	}
	return sessionCells(s, keys, func(k ablationCell) ablationRun { return runAblation(s.sc, k) })
}

// Ablations runs all three and concatenates their reports.
func Ablations(s *Session) (string, error) {
	r := s.ablationCells()
	return ablationReplay(r[0].lag, r[1].lag) + "\n" +
		ablationRemoteBuffer(r[2].oltp, r[3].oltp) + "\n" +
		ablationRedoPushdown(r[4].oltp, r[5].oltp), nil
}
