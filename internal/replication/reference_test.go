package replication

import (
	"bytes"
	"slices"
	"testing"
	"time"
	"unsafe"

	"cloudybench/internal/check"
	"cloudybench/internal/engine"
	"cloudybench/internal/netsim"
	"cloudybench/internal/node"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// TestEnvelopeIsARecordReference pins what one record in flight costs: a
// pointer to its WAL slot and its commit instant, not a 128-byte copy.
func TestEnvelopeIsARecordReference(t *testing.T) {
	if got := unsafe.Sizeof(envelope{}); got != 16 {
		t.Fatalf("envelope is %d bytes, want 16 (a *storage.Record and a time.Duration)", got)
	}
}

// writeMix commits the transactions from … from+n-1 on rw, one statement
// each: inserts, updates and deletes in turn.
func writeMix(t *testing.T, p *sim.Proc, rw *node.Node, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		tbl := rw.DB.Table("orders") // a recovery replaces the table
		tx, err := rw.Begin(p)
		if err != nil {
			t.Fatalf("begin: %v", err)
		}
		id := int64(i%900) + 1
		switch i % 3 {
		case 0:
			err = tx.Insert(tbl, engine.Row{engine.Int(int64(2000 + i)), engine.Str("NEW")})
		case 1:
			err = tx.Update(tbl, engine.IntKey(id), engine.Row{engine.Int(id), engine.Str("PAID")})
		case 2:
			err = tx.Delete(tbl, engine.IntKey(id))
		}
		if err != nil {
			t.Fatalf("txn %d: %v", i, err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

// encodeLog returns the encoding of every record log holds.
func encodeLog(log *storage.Log) []byte {
	var out []byte
	for chunk := range log.Chunks() {
		for i := range chunk {
			out = chunk[i].Encode(out)
		}
	}
	return out
}

// TestStreamNeverWritesThroughItsReferences: the stream holds pointers into
// the primary's WAL from commit to apply. Shipping, lane distribution,
// batched replay and the OnApply hook must only read through them, so the
// log's encoding is the same before and after everything is applied. The
// link is still charged what a shipped copy weighs: the size of the record
// the commit returned, less its prior image.
func TestStreamNeverWritesThroughItsReferences(t *testing.T) {
	s := sim.New(epoch)
	rw, _, st, _, rtbl := setup(s, Config{
		Name: "r", BatchInterval: 5 * time.Millisecond, Lanes: 3, PerRecord: 20 * time.Microsecond,
		Link: netsim.NewLink(s, netsim.TCP, 10),
	})
	publish := rw.OnCommit
	var want int64
	priors := 0
	rw.OnCommit = func(p *sim.Proc, recs []storage.Record) {
		for i := range recs {
			want += int64(recs[i].Size() - len(recs[i].Prior))
			priors += len(recs[i].Prior)
		}
		publish(p, recs)
	}
	applied := 0
	st.OnApply = func(storage.Record) { applied++ }
	var before []byte
	s.Go("writer", func(p *sim.Proc) {
		writeMix(t, p, rw, 0, 300)
		before = encodeLog(rw.DB.Log())
		for st.Backlog() > 0 {
			p.Sleep(10 * time.Millisecond)
		}
		st.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if after := encodeLog(rw.DB.Log()); !bytes.Equal(before, after) {
		t.Fatal("the primary's log changed while the stream shipped and applied it")
	}
	if applied != 300 {
		t.Fatalf("OnApply ran %d times, want 300", applied)
	}
	if priors == 0 {
		t.Fatal("no published log record carried a prior image: the size check is vacuous")
	}
	if got := st.cfg.Link.BytesSent(); got != want {
		t.Fatalf("link charged %d bytes, want %d (each record's size without its prior image)", got, want)
	}
	if row, _, ok := rtbl.Get(engine.IntKey(2)); !ok || row[1].Str() != "PAID" {
		t.Fatalf("replica row 2 = %v %v, want the update", row, ok)
	}
}

// TestBacklogByReferenceSurvivesCrashRecoveryAndPromotion drives the three
// events that change the RW's log while the stream holds references into
// it, each with a backlog in flight: a crash that leaves a torn tail, the
// in-place recovery that gives the node a fresh DB and log, and a
// promotion's DrainPending. The reference is what a by-value stream would
// have carried: each published record copied at commit. Every one of them
// must reach the replica exactly once and unchanged, and the replica must
// converge with the recovered primary.
func TestBacklogByReferenceSurvivesCrashRecoveryAndPromotion(t *testing.T) {
	s := sim.New(epoch)
	rw, ro, st, _, _ := setup(s, Config{
		Name: "r", BatchInterval: 50 * time.Millisecond, Lanes: 3, PerRecord: 2 * time.Millisecond,
		Link: netsim.NewLink(s, netsim.TCP, 10),
	})
	rw.RebuildSchema = func(db *engine.DB) { db.MustCreateTable(ordersSchema(), 1000, genOrder) }
	publish := rw.OnCommit
	copies := make(map[storage.LSN]storage.Record)
	var published []storage.LSN // data records
	rw.OnCommit = func(p *sim.Proc, recs []storage.Record) {
		for _, rec := range recs {
			if _, dup := copies[rec.LSN]; dup {
				t.Errorf("LSN %d published twice", rec.LSN)
			}
			rec.Key, rec.Image = slices.Clone(rec.Key), slices.Clone(rec.Image)
			copies[rec.LSN] = rec
			if rec.Type != storage.RecCommit {
				published = append(published, rec.LSN)
			}
		}
		publish(p, recs)
	}
	var applied []storage.LSN
	st.OnApply = func(rec storage.Record) {
		applied = append(applied, rec.LSN)
		want := copies[rec.LSN]
		if rec.Type != want.Type || rec.Txn != want.Txn || rec.Table != want.Table || rec.Page != want.Page ||
			!bytes.Equal(rec.Key, want.Key) || !bytes.Equal(rec.Image, want.Image) {
			t.Errorf("LSN %d applied as %v %x, published as %v %x", rec.LSN, rec.Type, rec.Key, want.Type, want.Key)
		}
	}
	s.Go("writer", func(p *sim.Proc) {
		// The first batch ships and sits in the slow lanes; the rest wait
		// in the inbox or on the link.
		writeMix(t, p, rw, 0, 200)
		p.Sleep(80 * time.Millisecond)
		writeMix(t, p, rw, 200, 100)

		// A transaction in flight when the RW dies leaves a torn tail.
		tx, err := rw.Begin(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Update(rw.DB.Table("orders"), engine.IntKey(950), engine.Row{engine.Int(950), engine.Str("LOST")}); err != nil {
			t.Fatal(err)
		}
		if st.Backlog() == 0 {
			t.Fatal("no backlog in flight at the crash")
		}
		if dropped := rw.Crash(storage.TornShort); dropped == 0 {
			t.Fatal("the crash cut nothing: no torn tail")
		}
		if _, err := rw.Recover(p); err != nil {
			t.Fatal(err)
		}
		writeMix(t, p, rw, 300, 100)

		// Promotion drains what is still in flight, as Cluster.promote does.
		if st.Backlog() == 0 {
			t.Fatal("no backlog in flight at the promotion")
		}
		st.DrainPending(p)
		if st.Backlog() != 0 {
			t.Fatal("DrainPending left a backlog")
		}
		st.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(published) != 400 {
		t.Fatalf("%d data records published, want 400", len(published))
	}
	slices.Sort(applied)
	slices.Sort(published)
	if !slices.Equal(applied, published) {
		t.Fatalf("applied LSNs differ from the published ones: %d applied, %d published", len(applied), len(published))
	}
	if shipped, n := st.Counts(); shipped != n || n != int64(len(copies)) {
		t.Fatalf("counts %d shipped / %d applied, want %d each", shipped, n, len(copies))
	}
	if st.appliedLSN != slices.Max(published)+1 { // the last commit record
		t.Fatalf("applied LSN %d, want %d", st.appliedLSN, slices.Max(published)+1)
	}
	if v := check.Convergence("ro", rw.DB, ro.DB); !v.Passed {
		t.Fatalf("replica diverged from the recovered primary: %v", v.Details)
	}
}
