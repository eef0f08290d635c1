package replication

import (
	"testing"
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/netsim"
	"cloudybench/internal/node"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func ordersSchema() *engine.Schema {
	return &engine.Schema{
		Name: "orders",
		Cols: []engine.Column{
			{Name: "O_ID", Kind: engine.KindInt},
			{Name: "O_STATUS", Kind: engine.KindString},
		},
		KeyCols:     []int{0},
		AvgRowBytes: 64,
	}
}

func genOrder(dst engine.Row, id int64) engine.Row {
	return append(dst[:0], engine.Int(id), engine.Str("NEW"))
}

func nodeCfg(name string) node.Config {
	return node.Config{
		Name: name, VCores: 4, MemoryBytes: 64 << 20,
		OpCPU: 10 * time.Microsecond, TxnCPU: 10 * time.Microsecond,
	}
}

func setup(s *sim.Sim, cfg Config) (rw, ro *node.Node, st *Stream, tbl, rtbl *engine.Table) {
	rw = node.New(s, nodeCfg("rw"), node.NullBackend{})
	ro = node.New(s, nodeCfg("ro"), node.NullBackend{})
	tbl = rw.DB.MustCreateTable(ordersSchema(), 1000, genOrder)
	rtbl = ro.DB.MustCreateTable(ordersSchema(), 1000, genOrder)
	st = NewStream(s, cfg, ro)
	rw.OnCommit = func(p *sim.Proc, recs []storage.Record) { st.PublishFrom(p, rw.DB.Log(), recs) }
	return rw, ro, st, tbl, rtbl
}

func TestStreamReplicatesCommittedChanges(t *testing.T) {
	s := sim.New(epoch)
	rw, _, st, tbl, rtbl := setup(s, Config{
		Name: "r", BatchInterval: time.Millisecond, Lanes: 1, PerRecord: 10 * time.Microsecond,
	})
	s.Go("writer", func(p *sim.Proc) {
		tx, _ := rw.Begin(p)
		tx.Update(tbl, engine.IntKey(5), engine.Row{engine.Int(5), engine.Str("PAID")})
		tx.Commit()
		p.Sleep(time.Second) // let replication drain
		st.Stop()
		row, _, ok := rtbl.Get(engine.IntKey(5))
		if !ok || row[1].Str() != "PAID" {
			t.Errorf("replica row = %v %v", row, ok)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	shipped, applied := st.Counts()
	if shipped != 2 || applied != 2 { // update + commit
		t.Fatalf("counts = %d/%d, want 2/2", shipped, applied)
	}
	if st.Backlog() != 0 {
		t.Fatal("backlog not drained")
	}
	if st.appliedLSN != 2 {
		t.Fatalf("applied LSN = %d", st.appliedLSN)
	}
}

func TestStreamLagReflectsBatchInterval(t *testing.T) {
	measure := func(batch time.Duration) time.Duration {
		s := sim.New(epoch)
		rw, _, st, tbl, _ := setup(s, Config{
			Name: "r", BatchInterval: batch, Lanes: 1, PerRecord: time.Microsecond,
		})
		s.Go("writer", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				tx, _ := rw.Begin(p)
				tx.Update(tbl, engine.IntKey(int64(i+1)), engine.Row{engine.Int(int64(i + 1)), engine.Str("PAID")})
				tx.Commit()
				p.Sleep(5 * time.Millisecond)
			}
			p.Sleep(2 * time.Second)
			st.Stop()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return st.MeanLag(storage.RecUpdate)
	}
	fast := measure(time.Millisecond)
	slow := measure(300 * time.Millisecond)
	if slow <= fast*10 {
		t.Fatalf("batching lag: slow=%v fast=%v, want slow >> fast", slow, fast)
	}
}

func TestStreamParallelLanesFasterThanSequential(t *testing.T) {
	// Saturating write stream: 8 lanes should drain far faster than 1.
	drainTime := func(lanes int) time.Duration {
		s := sim.New(epoch)
		rw, _, st, tbl, _ := setup(s, Config{
			Name: "r", BatchInterval: time.Millisecond, Lanes: lanes, PerRecord: 500 * time.Microsecond,
		})
		s.Go("writer", func(p *sim.Proc) {
			// Updates spread across the 1000-row base (8 pages) so page
			// partitioning can actually parallelize.
			for i := 0; i < 500; i++ {
				tx, _ := rw.Begin(p)
				id := int64(i%1000) + 1
				tx.Update(tbl, engine.IntKey(id), engine.Row{engine.Int(id), engine.Str("PAID")})
				tx.Commit()
			}
			for st.Backlog() > 0 {
				p.Sleep(10 * time.Millisecond)
			}
			st.Stop()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Elapsed()
	}
	seq := drainTime(1)
	par := drainTime(8)
	if par >= seq {
		t.Fatalf("parallel (%v) not faster than sequential (%v)", par, seq)
	}
	if float64(seq)/float64(par) < 3 {
		t.Fatalf("parallel speedup only %.1fx", float64(seq)/float64(par))
	}
}

func TestStreamPerKeyOrderPreservedAcrossLanes(t *testing.T) {
	s := sim.New(epoch)
	rw, _, st, tbl, rtbl := setup(s, Config{
		Name: "r", BatchInterval: time.Millisecond, Lanes: 8, PerRecord: 100 * time.Microsecond,
	})
	s.Go("writer", func(p *sim.Proc) {
		// Update the same key repeatedly; final state must win on replica.
		for v := 1; v <= 50; v++ {
			tx, _ := rw.Begin(p)
			tx.Update(tbl, engine.IntKey(7), engine.Row{engine.Int(7), engine.Str(status(v))})
			tx.Commit()
		}
		for st.Backlog() > 0 {
			p.Sleep(10 * time.Millisecond)
		}
		st.Stop()
		row, _, _ := rtbl.Get(engine.IntKey(7))
		if row[1].Str() != status(50) {
			t.Errorf("replica saw %q, want %q (out-of-order replay)", row[1].Str(), status(50))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func status(v int) string { return "S" + string(rune('0'+v%10)) + string(rune('0'+v/10)) }

func TestStreamDeleteCheaperThanUpdate(t *testing.T) {
	s := sim.New(epoch)
	rw, _, st, tbl, _ := setup(s, Config{
		Name: "r", BatchInterval: time.Millisecond, Lanes: 1,
		PerRecord: time.Millisecond,
	})
	if got, want := st.recordCost(storage.RecDelete), time.Duration(float64(time.Millisecond)*deleteFactor); got != want {
		t.Fatalf("delete replay cost %v, want %v (deleteFactor × PerRecord)", got, want)
	}
	if got := st.recordCost(storage.RecUpdate); got != time.Millisecond {
		t.Fatalf("update replay cost %v, want PerRecord", got)
	}
	s.Go("writer", func(p *sim.Proc) {
		for i := int64(1); i <= 20; i++ {
			tx, _ := rw.Begin(p)
			tx.Update(tbl, engine.IntKey(i), engine.Row{engine.Int(i), engine.Str("PAID")})
			tx.Commit()
			p.Sleep(50 * time.Millisecond)
		}
		for i := int64(21); i <= 40; i++ {
			tx, _ := rw.Begin(p)
			tx.Delete(tbl, engine.IntKey(i))
			tx.Commit()
			p.Sleep(50 * time.Millisecond)
		}
		p.Sleep(time.Second)
		st.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st.MeanLag(storage.RecDelete) >= st.MeanLag(storage.RecUpdate) {
		t.Fatalf("delete lag %v >= update lag %v", st.MeanLag(storage.RecDelete), st.MeanLag(storage.RecUpdate))
	}
}

func TestStreamExtraHopsAddLatency(t *testing.T) {
	measure := func(hops []time.Duration) time.Duration {
		s := sim.New(epoch)
		rw, _, st, tbl, _ := setup(s, Config{
			Name: "r", BatchInterval: time.Millisecond, Lanes: 1,
			PerRecord: time.Microsecond, ExtraHops: hops,
			Link: netsim.NewLink(s, netsim.TCP, 10),
		})
		s.Go("writer", func(p *sim.Proc) {
			tx, _ := rw.Begin(p)
			tx.Update(tbl, engine.IntKey(1), engine.Row{engine.Int(1), engine.Str("PAID")})
			tx.Commit()
			p.Sleep(5 * time.Second)
			st.Stop()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return st.MeanLag(storage.RecUpdate)
	}
	direct := measure(nil)
	twoHop := measure([]time.Duration{200 * time.Millisecond})
	if twoHop < direct+150*time.Millisecond {
		t.Fatalf("two-hop lag %v vs direct %v", twoHop, direct)
	}
}

func TestStreamBuffersDuringReplicaDowntime(t *testing.T) {
	s := sim.New(epoch)
	rw, ro, st, tbl, rtbl := setup(s, Config{
		Name: "r", BatchInterval: time.Millisecond, Lanes: 1, PerRecord: time.Microsecond,
	})
	s.Go("writer", func(p *sim.Proc) {
		ro.SetState(node.Down)
		for i := int64(1); i <= 10; i++ {
			tx, _ := rw.Begin(p)
			tx.Update(tbl, engine.IntKey(i), engine.Row{engine.Int(i), engine.Str("PAID")})
			tx.Commit()
		}
		p.Sleep(2 * time.Second)
		if _, _, ok := rtbl.Get(engine.IntKey(1)); ok {
			if r, _, _ := rtbl.Get(engine.IntKey(1)); r[1].Str() == "PAID" {
				t.Error("replica applied records while down")
			}
		}
		ro.SetState(node.Running)
		p.Sleep(2 * time.Second)
		row, _, _ := rtbl.Get(engine.IntKey(1))
		if row[1].Str() != "PAID" {
			t.Error("replica did not catch up after restart")
		}
		st.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStreamOnApplyHook(t *testing.T) {
	s := sim.New(epoch)
	rw, _, st, tbl, _ := setup(s, Config{
		Name: "r", BatchInterval: time.Millisecond, Lanes: 1, PerRecord: time.Microsecond,
	})
	invalidated := 0
	st.OnApply = func(rec storage.Record) { invalidated++ }
	s.Go("writer", func(p *sim.Proc) {
		tx, _ := rw.Begin(p)
		tx.Update(tbl, engine.IntKey(1), engine.Row{engine.Int(1), engine.Str("PAID")})
		tx.Update(tbl, engine.IntKey(2), engine.Row{engine.Int(2), engine.Str("PAID")})
		tx.Commit()
		p.Sleep(time.Second)
		st.Stop()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if invalidated != 2 {
		t.Fatalf("OnApply ran %d times, want 2 (data records only)", invalidated)
	}
}
