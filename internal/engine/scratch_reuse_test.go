package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"cloudybench/internal/sim"
)

// TestRollbackAfterScratchReuseLeavesNoTrace pins the free-list discipline
// behind the zero-alloc commit path: Txn objects, their lock-key slices, and
// their row arenas are recycled across transactions, so an abort must not
// only be atomic (the existing property test) but must leave the recycled
// scratch in a state where the NEXT transaction on the same *Txn cannot
// observe or corrupt anything. The test drives one DB with a mix of commits
// and aborts, replays only the committed transactions on an oracle DB that
// never aborts, requires that the free list demonstrably recycled pointers,
// and then compares the visible state of both databases row by row.
// (Physical page numbers are excluded: an aborted insert legitimately burns
// an append slot, exactly like a real heap.)
func TestRollbackAfterScratchReuseLeavesNoTrace(t *testing.T) {
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	dbA := NewDB(s) // commits + aborts, scratch heavily recycled
	dbB := NewDB(s) // oracle: sees only the committed transactions
	tA := dbA.MustCreateTable(testSchema(), 0, nil)
	tB := dbB.MustCreateTable(testSchema(), 0, nil)

	type op struct {
		kind int // 0 insert, 1 update, 2 delete
		id   int64
		row  Row
	}
	var nextID int64 = 1
	expect := make(map[int64]string) // committed truth, tracked independently
	seen := make(map[*Txn]int)
	reuses := 0

	s.Go("drive", func(p *sim.Proc) {
		r := rand.New(rand.NewSource(99))
		for i := 0; i < 400; i++ {
			txn := dbA.Begin(p)
			if seen[txn] > 0 {
				reuses++
			}
			seen[txn]++

			var ops []op
			nStmts := 1 + r.Intn(3)
			failed := false
			for j := 0; j < nStmts && !failed; j++ {
				switch r.Intn(3) {
				case 0:
					id := nextID
					row := Row{Int(id), Str(fmt.Sprintf("INS-%d-%d", i, j))}
					if _, err := txn.Insert(tA, row); err != nil {
						failed = true
						break
					}
					nextID++
					ops = append(ops, op{kind: 0, id: id, row: row})
				case 1:
					id := r.Int63n(nextID) + 1
					row := Row{Int(id), Str(fmt.Sprintf("UPD-%d-%d", i, j))}
					if _, err := txn.Update(tA, IntKey(id), row); err != nil {
						continue // key not visible; statement is a no-op
					}
					ops = append(ops, op{kind: 1, id: id, row: row})
				case 2:
					id := r.Int63n(nextID) + 1
					if _, err := txn.Delete(tA, IntKey(id)); err != nil {
						continue
					}
					ops = append(ops, op{kind: 2, id: id})
				}
			}
			if failed || r.Intn(3) == 0 {
				if err := txn.Abort(); err != nil {
					t.Errorf("txn %d: abort: %v", i, err)
					return
				}
				continue
			}
			if _, err := txn.Commit(); err != nil {
				t.Errorf("txn %d: commit: %v", i, err)
				return
			}
			// Replay the committed statements on the oracle.
			oracle := dbB.Begin(p)
			for _, o := range ops {
				var err error
				switch o.kind {
				case 0:
					_, err = oracle.Insert(tB, o.row)
					expect[o.id] = o.row[1].Str()
				case 1:
					_, err = oracle.Update(tB, IntKey(o.id), o.row)
					expect[o.id] = o.row[1].Str()
				case 2:
					_, err = oracle.Delete(tB, IntKey(o.id))
					delete(expect, o.id)
				}
				if err != nil {
					t.Errorf("oracle replay txn %d: %v", i, err)
					return
				}
			}
			if _, err := oracle.Commit(); err != nil {
				t.Errorf("oracle commit txn %d: %v", i, err)
				return
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	if reuses == 0 {
		t.Fatal("free list never recycled a Txn pointer; test lost its teeth")
	}

	// Visible state must agree everywhere: with the reference map and
	// between the two databases, for every id ever allocated.
	for id := int64(1); id < nextID; id++ {
		rowA, _, okA := dbA.ReadInto("orders", IntKey(id), nil)
		rowB, _, okB := dbB.ReadInto("orders", IntKey(id), nil)
		want, live := expect[id]
		if okA != live || okB != live {
			t.Fatalf("id %d: visibility A=%v B=%v want %v", id, okA, okB, live)
		}
		if !live {
			continue
		}
		if rowA[1].Str() != want || rowB[1].Str() != want {
			t.Fatalf("id %d: status A=%q B=%q want %q", id, rowA[1].Str(), rowB[1].Str(), want)
		}
	}
	if a, b := tA.LiveRows(), tB.LiveRows(); a != b {
		t.Fatalf("live rows diverge: %d vs %d", a, b)
	}
	if held := dbA.Locks().HeldLocks(); held != 0 {
		t.Fatalf("lock table not empty after final abort/commit: %d held", held)
	}
}
