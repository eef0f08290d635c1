package replication

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/meter"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// TestReplayBatchMatchesSerialApply is the batched-replay equivalence
// contract: replaying a ship batch in one pass (coalesced CPU sleep,
// analytic per-record apply instants, DB.ApplyBatch) must be observationally
// identical to the old record-at-a-time path — same applied LSN and counts,
// equal per-DML lag histograms (buckets, count, sum, min and max: all the
// stream keeps), same replica contents.
// serialApply is the retained test knob that forces the old path.
//
// Two shapes of traffic: paced commits, where a ship batch is a few records,
// and one burst shipped as a single batch many queue chunks long, so that
// chunk-wise apply is held to the same contract, on one lane and on three.
func TestReplayBatchMatchesSerialApply(t *testing.T) {
	type outcome struct {
		appliedLSN storage.LSN
		shipped    int64
		applied    int64
		lags       [3]meter.Histogram // insert, update, delete
		rows       string
		onApply    map[int][]storage.LSN // per lane, in call order
		chunks     int                   // queue chunks the stream came to own
	}
	type shape struct {
		name     string
		lanes    int
		txns     int
		burst    bool
		interval time.Duration
	}
	run := func(serial bool, sh shape) outcome {
		lanes := sh.lanes
		s := sim.New(epoch)
		rw, _, st, tbl, rtbl := setup(s, Config{
			Name: "r", BatchInterval: sh.interval, Lanes: lanes,
			PerRecord: 20 * time.Microsecond,
		})
		st.serialApply = serial
		out := outcome{onApply: make(map[int][]storage.LSN)}
		st.OnApply = func(rec storage.Record) {
			lane := int(rec.Page.Num) % lanes
			out.onApply[lane] = append(out.onApply[lane], rec.LSN)
		}
		s.Go("writer", func(p *sim.Proc) {
			next := int64(1001)
			for i := 0; i < sh.txns; i++ {
				tx, _ := rw.Begin(p)
				switch i % 3 {
				case 0:
					tx.Insert(tbl, engine.Row{engine.Int(next), engine.Str("NEW")})
					next++
				case 1:
					tx.Update(tbl, engine.IntKey(int64(i)%150+1),
						engine.Row{engine.Int(int64(i)%150 + 1), engine.Str("PAID")})
				case 2:
					tx.Delete(tbl, engine.IntKey(int64(i)%500+200))
				}
				tx.Commit()
				if !sh.burst {
					p.Sleep(time.Duration(1+i%7) * time.Millisecond)
				}
			}
			p.Sleep(2 * time.Second) // drain
			st.Stop()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		out.appliedLSN = st.appliedLSN
		out.shipped, out.applied = st.Counts()
		if st.Backlog() != 0 {
			t.Fatalf("%s serial=%v: backlog not drained", sh.name, serial)
		}
		for c := st.free; c != nil; c = c.next {
			out.chunks++
		}
		out.lags = [3]meter.Histogram{st.lagInsert, st.lagUpdate, st.lagDelete}
		for id := int64(1); id < 1100; id++ {
			row, _, ok := rtbl.Get(engine.IntKey(id))
			out.rows += fmt.Sprintf("%d:%v:%v;", id, ok, row)
		}
		return out
	}

	for _, sh := range []shape{
		{name: "paced/1", lanes: 1, txns: 60, interval: 10 * time.Millisecond},
		{name: "paced/3", lanes: 3, txns: 60, interval: 10 * time.Millisecond},
		{name: "burst/1", lanes: 1, txns: 1200, burst: true, interval: 200 * time.Millisecond},
		{name: "burst/3", lanes: 3, txns: 1200, burst: true, interval: 200 * time.Millisecond},
	} {
		serial := run(true, sh)
		batched := run(false, sh)
		if sh.burst {
			// The stream owns enough chunks to have held every record at
			// once, so the burst shipped as one batch and each lane replayed
			// its share as one batch too: at least three chunks of it.
			if batched.chunks*envChunkLen < int(batched.shipped) {
				t.Errorf("%s: %d records through %d queue chunks: not one ship batch", sh.name, batched.shipped, batched.chunks)
			}
			for lane := 0; lane < sh.lanes; lane++ {
				if n := len(batched.onApply[lane]); n <= 2*envChunkLen {
					t.Errorf("%s: lane %d replayed %d records, want a batch of >= 3 chunks", sh.name, lane, n)
				}
			}
		}
		if !reflect.DeepEqual(serial.onApply, batched.onApply) {
			t.Errorf("%s: OnApply call sequence differs between serial and batched replay", sh.name)
		}
		if serial.appliedLSN != batched.appliedLSN {
			t.Errorf("%s: applied LSN %d (serial) != %d (batched)",
				sh.name, serial.appliedLSN, batched.appliedLSN)
		}
		if serial.shipped != batched.shipped || serial.applied != batched.applied {
			t.Errorf("%s: counts %d/%d (serial) != %d/%d (batched)", sh.name,
				serial.shipped, serial.applied, batched.shipped, batched.applied)
		}
		for i, name := range []string{"insert", "update", "delete"} {
			if a, b := &serial.lags[i], &batched.lags[i]; !a.Equal(b) {
				t.Errorf("%s %s: lag histograms differ: n=%d sum=%v (serial) vs n=%d sum=%v (batched)",
					sh.name, name, a.Count(), a.Sum(), b.Count(), b.Sum())
			}
		}
		if serial.rows != batched.rows {
			t.Errorf("%s: replica contents diverge between serial and batched replay", sh.name)
		}
	}
}
