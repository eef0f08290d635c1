package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"cloudybench/internal/sim"
)

// TestPropertyTxnSequencesMatchReference drives random single-process
// transaction sequences (insert/update/delete, randomly committed or
// aborted) against both the engine and a plain-map reference model, then
// checks full-state agreement. This pins atomicity: aborted work must be
// invisible, committed work durable.
func TestPropertyTxnSequencesMatchReference(t *testing.T) {
	check := func(seed int64, opsRaw uint16) bool {
		nOps := int(opsRaw%300) + 50
		r := rand.New(rand.NewSource(seed))
		s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
		db := NewDB(s)
		const base = 50
		tbl := db.MustCreateTable(testSchema(), base, genOrder)

		// Reference: id -> status string; base rows start NEW.
		ref := make(map[int64]string)
		for i := int64(1); i <= base; i++ {
			ref[i] = "NEW"
		}
		nextID := int64(base + 1)
		okAll := true

		s.Go("driver", func(p *sim.Proc) {
			for i := 0; i < nOps; i++ {
				txn := db.Begin(p)
				shadow := make(map[int64]*string) // staged changes
				nStmts := 1 + r.Intn(4)
				var staged []int64
				for j := 0; j < nStmts; j++ {
					switch r.Intn(3) {
					case 0: // insert
						id := nextID
						nextID++
						if _, err := txn.Insert(tbl, genOrder(nil, id)); err != nil {
							okAll = false
							return
						}
						v := "NEW"
						shadow[id] = &v
						staged = append(staged, id)
					case 1: // update random id if visible
						id := int64(r.Intn(int(nextID))) + 1
						status := fmt.Sprintf("S%d", i)
						_, err := txn.Update(tbl, IntKey(id), Row{Int(id), Str(status)})
						if err == nil {
							shadow[id] = &status
							staged = append(staged, id)
						}
					case 2: // delete random id if visible
						id := int64(r.Intn(int(nextID))) + 1
						_, err := txn.Delete(tbl, IntKey(id))
						if err == nil {
							shadow[id] = nil
							staged = append(staged, id)
						}
					}
				}
				if r.Intn(4) == 0 {
					txn.Abort() // staged changes must vanish
				} else {
					if _, err := txn.Commit(); err != nil {
						okAll = false
						return
					}
					for _, id := range staged {
						if v := shadow[id]; v == nil {
							delete(ref, id)
						} else {
							ref[id] = *v
						}
					}
				}
			}
		})
		if err := s.Run(); err != nil {
			return false
		}
		if !okAll {
			return false
		}
		// Full-state comparison.
		if tbl.LiveRows() != int64(len(ref)) {
			return false
		}
		for id, status := range ref {
			row, _, ok := tbl.Get(IntKey(id))
			if !ok || row[1].Str() != status {
				return false
			}
		}
		// And nothing beyond the reference is visible.
		visible := 0
		tbl.VisibleScan(func(k Key, r Row) bool {
			visible++
			id, _ := DecodeIntKey(k)
			_, ok := ref[id]
			if !ok {
				visible = -1 << 30
				return false
			}
			return true
		})
		return visible == len(ref)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyWALReplayReconstructsState replays every committed WAL record
// into a fresh replica and checks the replica converges to the primary for
// random workloads — the invariant all replication correctness rests on.
func TestPropertyWALReplayReconstructsState(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
		primary := NewDB(s)
		replica := NewDB(s)
		const base = 30
		pt := primary.MustCreateTable(testSchema(), base, genOrder)
		rt := replica.MustCreateTable(testSchema(), base, genOrder)

		applyErr := false
		s.Go("driver", func(p *sim.Proc) {
			for i := 0; i < 120; i++ {
				txn := primary.Begin(p)
				id := int64(r.Intn(base*2)) + 1
				switch r.Intn(3) {
				case 0:
					txn.Insert(pt, genOrder(nil, pt.NextAutoID()))
				case 1:
					txn.Update(pt, IntKey(id), Row{Int(id), Str("PAID")})
				case 2:
					txn.Delete(pt, IntKey(id))
				}
				if r.Intn(5) == 0 {
					txn.Abort()
				} else {
					// Ship what Commit publishes — the committed records
					// whose after-images replicas replay — immediately, while
					// the txn's record buffer is valid.
					recs, _ := txn.Commit()
					for _, rec := range recs {
						if err := replica.Apply(rec); err != nil {
							applyErr = true
							return
						}
					}
				}
			}
		})
		if err := s.Run(); err != nil || applyErr {
			return false
		}
		if rt.LiveRows() != pt.LiveRows() {
			return false
		}
		max := pt.MaxID() + 5
		for id := int64(1); id <= max; id++ {
			prow, _, pok := pt.Get(IntKey(id))
			rrow, _, rok := rt.Get(IntKey(id))
			if pok != rok {
				return false
			}
			if pok && !prow.Equal(rrow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
