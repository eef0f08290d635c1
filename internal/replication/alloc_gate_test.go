package replication

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// TestShipReplayDoesNotRegrowQueues gates the bytes the pipeline itself
// allocates per record. The records are committed and captured up front, so
// the measured stretch is Publish → ship → replay alone; after one warm-up
// pass has filled the stream's chunk free list, what is still allocated per
// record is the replica's decoded row and the overlay's key copy — no inbox,
// lane queue or apply scratch regrown and copied over, and no lag sample kept
// (the lag histograms are fixed arrays).
func TestShipReplayDoesNotRegrowQueues(t *testing.T) {
	const (
		records  = 10_000
		perBatch = 500 // records published per ship interval
		limit    = 50  // bytes per record
	)
	s := sim.New(epoch)
	rw, _, st, tbl, _ := setup(s, Config{
		Name: "r", BatchInterval: time.Millisecond, Lanes: 1, PerRecord: time.Microsecond,
	})
	var captured [][]storage.Record
	rw.OnCommit = func(_ *sim.Proc, recs []storage.Record) {
		captured = append(captured, slices.Clone(recs))
	}
	var perRecord float64
	s.Go("driver", func(p *sim.Proc) {
		defer st.Stop()
		for i := 0; len(captured)*2 < records; i++ {
			id := int64(i)%1000 + 1
			tx, _ := rw.Begin(p)
			tx.Update(tbl, engine.IntKey(id), engine.Row{engine.Int(id), engine.Str("PAID")})
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
		pass := func() {
			published := 0
			for _, recs := range captured {
				st.Publish(p, recs)
				if published += len(recs); published%perBatch == 0 {
					p.Sleep(2 * time.Millisecond)
				}
			}
			for st.Backlog() > 0 {
				p.Sleep(time.Millisecond)
			}
		}
		pass() // warm-up: the free list reaches its high-water mark
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		pass()
		runtime.ReadMemStats(&m1)
		perRecord = float64(m1.TotalAlloc-m0.TotalAlloc) / records
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if shipped, applied := st.Counts(); shipped != 2*records || applied != 2*records {
		t.Fatalf("counts = %d/%d, want %d/%d", shipped, applied, 2*records, 2*records)
	}
	t.Logf("%.1f bytes allocated per record", perRecord)
	if perRecord > limit {
		t.Fatalf("Publish → ship → replay allocated %.1f bytes per record, want <= %d", perRecord, limit)
	}
}
