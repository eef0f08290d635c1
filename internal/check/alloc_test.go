package check

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/sim"
)

// TestRecorderAllocationFloors pins the recorder's allocation budget: a
// recorded event costs no allocation of its own — only a filling event
// chunk or slab chunk allocates — and judging a history costs the index's
// few slices and maps, not an allocation per event.
func TestRecorderAllocationFloors(t *testing.T) {
	key := engine.IntKey(7)
	row := engine.Row{engine.Int(7), engine.Int(1), engine.Str("sku"), engine.Int(1), engine.Float(5)}
	rec := NewRecorder()
	callbacks := []struct {
		name string
		fn   func()
	}{
		{"OnRead", func() { rec.OnRead(time.Second, 1, core.TableOrderline, key, row) }},
		{"OnWrite", func() { rec.OnWrite(time.Second, 1, core.TableOrderline, key, row, row) }},
		{"OnCommit", func() { rec.OnCommit(time.Second, 1) }},
		{"OnAbort", func() { rec.OnAbort(time.Second, 2) }},
	}
	chunks := func() int { return len(rec.events) + len(rec.keys.chunks) + len(rec.vals.chunks) }
	recordChunk := func() {
		for i := 0; i < eventChunkLen/len(callbacks); i++ {
			for _, c := range callbacks {
				c.fn()
			}
		}
	}
	recordChunk() // warm: the chunk lists exist

	const runs = 50
	before := chunks()
	perChunk := testing.AllocsPerRun(runs, recordChunk)
	opened := float64(chunks()-before) / (runs + 1)
	if perChunk > math.Ceil(opened) {
		t.Errorf("recording %d events allocated %.0f times, want at most the %.2f chunks it filled", eventChunkLen, perChunk, opened)
	}
	for _, c := range callbacks {
		if got := testing.AllocsPerRun(500, c.fn); got != 0 {
			t.Errorf("%s: %.0f allocations per call on a warm recorder, want 0 (only a filling chunk allocates)", c.name, got)
		}
	}

	db, hist := cleanHistory(t, 100_000)
	if hist.n < 100_000 {
		t.Fatalf("history holds %d events, want 100000", hist.n)
	}
	var vs []Verdict
	perPass := testing.AllocsPerRun(3, func() {
		hist.ix = nil // judge from scratch: index build included
		vs = append(vs[:0],
			Conservation(hist), RowBalance(hist, db), ReadCommitted(hist),
			Durability("rw", hist, db), NoResurrection("rw", hist, db))
	})
	for _, v := range vs {
		if !v.Passed || v.Checked == 0 {
			t.Fatalf("%s on a clean history: %v (checked %d)", v.Name, v, v.Checked)
		}
	}
	t.Logf("one pass of the five history verdicts over %d events: %.0f allocations (%.4f per event)", hist.n, perPass, perPass/float64(hist.n))
	if limit := float64(hist.n) / 100; perPass > limit {
		t.Errorf("one pass of the history verdicts allocated %.0f times over %d events, want at most %.0f", perPass, hist.n, limit)
	}
}

// cleanHistory records at least n events of honest traffic on a sales
// database a thousand customers wide: payments, orderline updates, inserts
// and deletes, one transaction in five aborted.
func cleanHistory(t *testing.T, n int) (*engine.DB, *Recorder) {
	t.Helper()
	const width = 1000
	s := sim.New(time.Unix(0, 0))
	db := engine.NewDB(s)
	customers := db.MustCreateTable(core.CustomerSchema(), width, func(dst engine.Row, id int64) engine.Row {
		return append(dst[:0], engine.Int(id), engine.Str("c"), engine.Float(100), engine.Int(0))
	})
	orders := db.MustCreateTable(core.OrdersSchema(), width, func(dst engine.Row, id int64) engine.Row {
		return append(dst[:0], engine.Int(id), engine.Int(id), engine.Float(float64(id%50)+0.25), engine.Int(0), engine.Str(core.StatusNew), engine.Int(0))
	})
	lines := db.MustCreateTable(core.OrderlineSchema(), 4*width, func(dst engine.Row, id int64) engine.Row {
		return append(dst[:0], engine.Int(id), engine.Int((id-1)/4+1), engine.Str("sku"), engine.Int(1), engine.Float(5))
	})
	rec := NewRecorder()
	db.SetObserver(rec)
	r := rand.New(rand.NewSource(1))
	buf := make(engine.Row, 0, len(lines.Schema.Cols)) // the client's row scratch
	s.Go("traffic", func(p *sim.Proc) {
		for rec.n < n {
			tx := db.Begin(p)
			switch op := r.Intn(4); op {
			case 0: // T2: pay an order, credit its customer
				oid := engine.IntKey(1 + r.Int63n(width))
				o, _, err := tx.GetForUpdate(orders, oid)
				if err != nil {
					t.Errorf("get order: %v", err)
					return
				}
				paid := o.Clone()
				paid[4] = engine.Str(core.StatusPaid)
				tx.Update(orders, oid, paid)
				cid := engine.IntKey(o[1].Int())
				c, _, _ := tx.GetForUpdate(customers, cid)
				credited := c.Clone()
				credited[2] = engine.Float(c[2].Float() + o[2].Float())
				tx.Update(customers, cid, credited)
			case 1: // insert a line
				id := lines.NextAutoID()
				tx.Insert(lines, engine.Row{engine.Int(id), engine.Int(1 + r.Int63n(width)), engine.Str("sku"), engine.Int(2), engine.Float(7)})
			default: // update or delete a line, reading it first
				k := engine.IntKey(1 + r.Int63n(lines.MaxID()))
				line, _, err := tx.GetForUpdateInto(lines, k, buf)
				if err != nil {
					break
				}
				if op == 2 {
					tx.Delete(lines, k)
				} else {
					upd := line.Clone()
					upd[3] = engine.Int(upd[3].Int() + 1)
					tx.Update(lines, k, upd)
				}
			}
			if r.Intn(5) == 0 {
				tx.Abort()
			} else {
				tx.Commit()
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return db, rec
}
