package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"cloudybench/internal/sim"
)

// runIndexSchedule drives a deterministic random interleaving of
// insert/update/delete/rollback across several concurrent sim workers on an
// indexed table, then returns a digest of the final visible state and every
// index's full contents. The schedule depends only on (seed, workers, ops).
func runIndexSchedule(seed int64, workers, opsPerWorker int) (string, error) {
	s := sim.New(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	db := NewDB(s)
	tbl := db.MustCreateTable(indexedSchema(), 60, genItem)
	db.MustCreateIndex("items", "ix_items_group", "IT_GROUP")
	db.MustCreateIndex("items", "ix_items_tag", "IT_TAG")

	for w := 0; w < workers; w++ {
		r := rand.New(rand.NewSource(seed + int64(w)*1_000_003))
		s.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			for i := 0; i < opsPerWorker; i++ {
				txn := db.Begin(p)
				nStmts := 1 + r.Intn(4)
				aborted := false
				for j := 0; j < nStmts; j++ {
					id := int64(r.Intn(200)) + 1
					var err error
					switch r.Intn(3) {
					case 0:
						_, err = txn.Insert(tbl, Row{Int(id), Int(r.Int63n(12)), Float(float64(r.Intn(100)) / 4), Str(fmt.Sprintf("t%d", r.Intn(8)))})
					case 1:
						_, err = txn.Update(tbl, IntKey(id), Row{Int(id), Int(r.Int63n(12)), Float(float64(r.Intn(100)) / 4), Str(fmt.Sprintf("t%d", r.Intn(8)))})
					case 2:
						_, err = txn.Delete(tbl, IntKey(id))
					}
					// Lock conflicts surface as timeouts; treat any error as
					// a reason to abort this txn (rollback path under test).
					if err != nil {
						txn.Abort()
						aborted = true
						break
					}
					// Yield mid-transaction so writers interleave.
					p.Sleep(time.Duration(r.Intn(3)) * time.Millisecond)
				}
				if aborted {
					continue
				}
				if r.Intn(3) == 0 {
					txn.Abort()
				} else if _, err := txn.Commit(); err != nil {
					return
				}
			}
		})
	}
	if err := s.Run(); err != nil {
		return "", err
	}

	h := sha256.New()
	tbl.VisibleScan(func(pk Key, r Row) bool {
		h.Write(pk)
		h.Write(EncodeRow(nil, r))
		return true
	})
	for _, ix := range tbl.Indexes() {
		ix.Walk(func(ek Key, pk Key) bool {
			h.Write(ek)
			return true
		})
	}
	// Coherence: every index is an exact projection of the visible rows.
	for _, ix := range tbl.Indexes() {
		want := 0
		tbl.VisibleScan(func(pk Key, r Row) bool {
			ek := ix.EntryKey(r[ix.Col], pk)
			if _, ok := ix.tree.Get(ek); !ok {
				want = -1 << 30
				return false
			}
			want++
			return true
		})
		if want != ix.tree.Len() {
			return "", fmt.Errorf("index %s incoherent: %d entries vs %d visible rows", ix.Name, ix.tree.Len(), want)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// TestPropertyIndexCoherentUnderInterleavings drives random multi-worker
// interleavings (insert/update/delete, commit and rollback, lock-conflict
// aborts) and checks after each that every secondary index is an exact
// projection of the base table, and that the whole final state is
// byte-identical across GOMAXPROCS settings.
func TestPropertyIndexCoherentUnderInterleavings(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	check := func(seed int64) bool {
		runtime.GOMAXPROCS(prev)
		d1, err := runIndexSchedule(seed, 4, 30)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		runtime.GOMAXPROCS(1)
		d2, err := runIndexSchedule(seed, 4, 30)
		if err != nil {
			t.Logf("seed %d (GOMAXPROCS=1): %v", seed, err)
			return false
		}
		if d1 != d2 {
			t.Logf("seed %d: digest differs across GOMAXPROCS: %s vs %s", seed, d1, d2)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexScheduleGoldenDigest is the 25-run golden regression (PR 4
// style): one pinned seed, 25 repetitions, every run must reproduce the
// recorded digest bit for bit. A change here means index maintenance or
// the schedule semantics drifted — update the golden only deliberately.
func TestIndexScheduleGoldenDigest(t *testing.T) {
	const golden = "739658db754ff06d081b0d499be1cb2cb44c62f703ff00de96b95a70eecfc634"
	first, err := runIndexSchedule(42, 4, 30)
	if err != nil {
		t.Fatal(err)
	}
	if first != golden {
		t.Fatalf("golden digest drifted:\n got  %s\n want %s", first, golden)
	}
	for run := 1; run < 25; run++ {
		d, err := runIndexSchedule(42, 4, 30)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if d != first {
			t.Fatalf("run %d: digest %s differs from run 0 %s", run, d, first)
		}
	}
}
