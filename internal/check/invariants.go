package check

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/node"
)

// Verdict is the outcome of one invariant check.
type Verdict struct {
	Name    string
	Passed  bool
	Checked int      // items the check examined (txns, reads, keys, ...)
	Every   int      // above 1: a sampled check, which examined one item in Every
	Details []string // first few violations, for the report
}

const maxDetails = 5

func (v *Verdict) fail(format string, args ...any) {
	v.Passed = false
	if len(v.Details) < maxDetails {
		v.Details = append(v.Details, fmt.Sprintf(format, args...))
	}
}

// String renders "PASS (<checked> checked)", with ", 1 in <every>" inside the
// parentheses when the check sampled, or "FAIL: <first violation>", or bare
// "FAIL" when the failure recorded no detail.
func (v Verdict) String() string {
	if v.Passed && v.Every > 1 {
		return fmt.Sprintf("PASS (%d checked, 1 in %d)", v.Checked, v.Every)
	}
	if v.Passed {
		return fmt.Sprintf("PASS (%d checked)", v.Checked)
	}
	if len(v.Details) > 0 {
		return "FAIL: " + v.Details[0]
	}
	return "FAIL"
}

// Conservation verifies the T2 money-conservation invariant over the sales
// schema: within every committed transaction, the total credit added to
// CUSTOMER rows equals the O_TOTALAMOUNT of the ORDERS rows the same
// transaction marked PAID — money moves, it is never created or destroyed.
// A transaction that credits a customer without paying an order (or vice
// versa with a mismatched amount) is a violation.
func Conservation(h *Recorder) Verdict {
	v := Verdict{Name: "conservation", Passed: true}
	ix := h.index()

	custCredit := core.CustomerSchema().ColIndex("C_CREDIT")
	ordAmount := core.OrdersSchema().ColIndex("O_TOTALAMOUNT")
	ordStatus := core.OrdersSchema().ColIndex("O_STATUS")
	cust, ord := h.tableID(core.TableCustomer), h.tableID(core.TableOrders)

	ix.sums = append(ix.sums[:0], make([]txnSums, len(ix.txns))...)
	ix.touched = ix.touched[:0]
	for i := range ix.writes {
		w := &ix.writes[i]
		tx := &ix.txns[w.txn]
		if !tx.committed {
			continue
		}
		table := int(ix.keys[w.key].table)
		if table != cust && table != ord {
			continue
		}
		s := &ix.sums[w.txn]
		if !s.touchedCust && !s.touchedOrd {
			ix.touched = append(ix.touched, w.txn)
		}
		before, after := h.row(w.before), h.row(w.after)
		if table == cust {
			s.touchedCust = true
			if before == nil || after == nil {
				v.fail("txn %d: customer rows must only be updated, saw insert/delete of key %x", tx.id, h.key(ix.keys[w.key].key))
				continue
			}
			s.creditDelta += after[custCredit].Float() - before[custCredit].Float()
			continue
		}
		s.touchedOrd = true
		if before == nil || after == nil {
			v.fail("txn %d: order rows must only be updated, saw insert/delete of key %x", tx.id, h.key(ix.keys[w.key].key))
			continue
		}
		if after[ordStatus].Str() != core.StatusPaid {
			v.fail("txn %d: order update left status %q, want %q", tx.id, after[ordStatus].Str(), core.StatusPaid)
		}
		if after[ordAmount].Float() != before[ordAmount].Float() {
			v.fail("txn %d: order amount changed %.2f -> %.2f", tx.id, before[ordAmount].Float(), after[ordAmount].Float())
		}
		s.paidAmount += before[ordAmount].Float()
	}
	// Verdict.Details keeps only the first maxDetails violations, so the
	// order here is visible in the chaos report: walk txns in numeric order.
	slices.SortFunc(ix.touched, func(a, b int32) int { return cmp.Compare(ix.txns[a].id, ix.txns[b].id) })
	for _, t := range ix.touched {
		s := &ix.sums[t]
		txn := ix.txns[t].id
		v.Checked++
		if s.touchedCust != s.touchedOrd {
			v.fail("txn %d: touched customer=%v orders=%v — payment must touch both", txn, s.touchedCust, s.touchedOrd)
			continue
		}
		if math.Abs(s.creditDelta-s.paidAmount) > 1e-6 {
			v.fail("txn %d: credited %.4f but paid orders total %.4f", txn, s.creditDelta, s.paidAmount)
		}
	}
	return v
}

// txnSums is one committed transaction's money movement.
type txnSums struct {
	creditDelta float64
	paidAmount  float64
	touchedCust bool
	touchedOrd  bool
}

// RowBalance verifies the row-count conservation invariant: for every table,
// the live row count must equal the base rows plus committed inserts minus
// committed deletes observed in the history (T1 grows ORDERLINE, T4 shrinks
// it; nothing else changes cardinality). Catches lost or double-applied
// writes on the primary.
func RowBalance(h *Recorder, db *engine.DB) Verdict {
	v := Verdict{Name: "row-balance", Passed: true}
	ix := h.index()
	tables := db.Tables()
	for _, name := range sortedTableNames(tables) {
		t := tables[name]
		v.Checked++
		var net int64
		if id := h.tableID(name); id >= 0 {
			net = ix.net[id]
		}
		want := t.BaseRows() + net
		if got := t.LiveRows(); got != want {
			v.fail("table %s: live rows %d, want base %d %+d committed net inserts = %d",
				name, got, t.BaseRows(), net, want)
		}
	}
	return v
}

// sortedTableNames fixes the walk order over a table map: failure details
// are truncated to maxDetails, so which tables get reported must not
// depend on map iteration order.
func sortedTableNames(m map[string]*engine.Table) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ReadCommitted replays the recorded history and verifies the isolation
// contract of strict 2PL:
//
//   - every read observes either the reader's own pending write, the latest
//     committed value of the key, or (before the first committed write) the
//     key's immutable baseline;
//   - every write's before-image matches the value the key held at that
//     point — an interleaved uncommitted write from another transaction
//     (impossible under 2PL, symptomatic of a broken lock table) surfaces
//     as a before-image mismatch.
//
// Baselines are generator-backed and not visible in the history a priori,
// so the checker learns them: the first observation of an unwritten key
// fixes its baseline, and every later observation must agree.
func ReadCommitted(h *Recorder) Verdict {
	v := Verdict{Name: "read-committed", Passed: true}
	ix := h.index()

	state := append(ix.state[:0], make([]keyState, len(ix.keys))...)
	ix.state = state
	cursor := ix.cursor[:0]
	for i := range ix.txns {
		cursor = append(cursor, ix.txns[i].first)
	}
	ix.cursor = cursor
	pending := ix.pending // (txn, key) → the txn's latest uncommitted image
	clear(pending)

	expect := func(t, k int32) (span, bool) {
		if len(pending) > 0 {
			if img, ok := pending[pendingKey(t, k)]; ok {
				return img, true
			}
		}
		if st := state[k]; st.known {
			return st.val, true
		}
		return span{}, false
	}
	h.each(func(seq int, ev *event) {
		ids := ix.ev[seq]
		switch ev.kind {
		case EvRead:
			v.Checked++
			if want, ok := expect(ids.txn, ids.key); !ok {
				state[ids.key] = keyState{known: true, val: ev.after}
			} else if !sameImage(h.row(ev.after), h.row(want)) {
				v.fail("seq %d txn %d: read of %s key %x saw a value that is neither the latest committed one nor its own write",
					seq, ev.txn, h.tables[ev.table], h.key(ev.key))
			}
		case EvWrite:
			v.Checked++
			if want, ok := expect(ids.txn, ids.key); !ok {
				state[ids.key] = keyState{known: true, val: ev.before}
			} else if !sameImage(h.row(ev.before), h.row(want)) {
				v.fail("seq %d txn %d: write to %s key %x has a stale before-image (lost update or lock violation)",
					seq, ev.txn, h.tables[ev.table], h.key(ev.key))
			}
			pending[pendingKey(ids.txn, ids.key)] = ev.after
		case EvCommit, EvAbort:
			// The txn's writes since it last finished (an id recurs when
			// several engines share the recorder) stop being pending; on
			// commit, each key's last one becomes its committed value.
			w := cursor[ids.txn]
			for ; w >= 0 && int(ix.writes[w].seq) < seq; w = ix.writes[w].next {
				wr := &ix.writes[w]
				if ev.kind == EvCommit {
					state[wr.key] = keyState{known: true, val: wr.after}
				}
				delete(pending, pendingKey(ids.txn, wr.key))
			}
			cursor[ids.txn] = w
		}
	})
	return v
}

// keyState is what ReadCommitted's replay knows of one key.
type keyState struct {
	known bool
	val   span
}

func pendingKey(txn, key int32) uint64 { return uint64(txn)<<32 | uint64(uint32(key)) }

// Convergence verifies that a replica's replayed state matches the primary
// byte for byte after quiesce: identical live row counts and identical
// delta overlays (including tombstones — a missing tombstone is a lost
// delete). The caller must quiesce replication first (backlog drained).
func Convergence(name string, primary, replica *engine.DB) Verdict {
	v := Verdict{Name: "convergence/" + name, Passed: true}
	var pd []deltaEntry
	primaryTables := primary.Tables()
	for _, tname := range sortedTableNames(primaryTables) {
		pt := primaryTables[tname]
		rt := replica.Table(tname)
		if rt == nil {
			v.fail("table %s missing on replica", tname)
			continue
		}
		if pt.LiveRows() != rt.LiveRows() {
			v.fail("table %s: primary has %d live rows, replica %d", tname, pt.LiveRows(), rt.LiveRows())
		}
		n := pt.DeltaLen()
		v.Checked += n
		if rn := rt.DeltaLen(); n != rn {
			v.fail("table %s: primary delta has %d entries, replica %d", tname, n, rn)
			continue
		}
		// Only the primary's side is collected; the replica's overlay is
		// walked against it in the same key order.
		pd = collectDelta(pd, pt, n)
		i := 0
		rt.ScanDelta(func(k engine.Key, row engine.Row, tombstone bool) bool {
			if tombstone {
				row = nil
			}
			p := &pd[i]
			if !bytes.Equal(p.key, k) {
				v.fail("table %s: delta key mismatch at entry %d", tname, i)
				return false
			}
			if !sameImage(p.row, row) {
				v.fail("table %s: row divergence at key %x", tname, []byte(p.key))
				return false
			}
			i++
			return true
		})
	}
	return v
}

// deltaEntry references one overlay entry in place (row nil = tombstone).
type deltaEntry struct {
	key engine.Key
	row engine.Row
}

// collectDelta refills dst with references to t's n overlay entries in key
// order, growing dst at most once. The overlay is not mutated while a
// verdict runs, so the keys and rows it hands out stay put.
func collectDelta(dst []deltaEntry, t *engine.Table, n int) []deltaEntry {
	if cap(dst) < n {
		dst = make([]deltaEntry, 0, n)
	}
	dst = dst[:0]
	t.ScanDelta(func(k engine.Key, row engine.Row, tombstone bool) bool {
		if tombstone {
			row = nil
		}
		dst = append(dst, deltaEntry{key: k, row: row})
		return true
	})
	return dst
}

// IndexCoherent verifies that every secondary index on every table of the
// database is an exact projection of the table's visible rows, byte for
// byte and in both directions: each visible row has exactly one index
// entry, and no entry points at a row that is gone or has moved to another
// value of the indexed column. Because replicas re-derive index contents
// from the replicated row stream, running this on each node (after quiesce
// for replicas) proves index maintenance survived rollbacks, fail-overs,
// and chaos without drifting from the data it summarizes.
func IndexCoherent(name string, db *engine.DB) Verdict {
	v := Verdict{Name: "index-coherent/" + name, Passed: true}
	tables := db.Tables()
	for _, tname := range sortedTableNames(tables) {
		t := tables[tname]
		for _, ix := range t.Indexes() {
			var want []engine.Key
			t.VisibleScan(func(pk engine.Key, r engine.Row) bool {
				want = append(want, ix.EntryKey(r[ix.Col], pk))
				return true
			})
			sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i], want[j]) < 0 })
			var got []engine.Key
			ix.Walk(func(ek, pk engine.Key) bool {
				got = append(got, append(engine.Key(nil), ek...))
				return true
			})
			v.Checked += len(want)
			if len(got) != len(want) {
				v.fail("index %s on %s: %d entries, table projects %d visible rows", ix.Name, tname, len(got), len(want))
				continue
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					v.fail("index %s on %s: entry %d is %x, projection says %x", ix.Name, tname, i, got[i], want[i])
					break
				}
			}
		}
	}
	return v
}

// ScanCoherent turns a node's scan cross-checks into a verdict: every
// sampled read-only scan it served returned, under the planner's plan,
// exactly what the other plan returns (node.Node.ScanRead).
func ScanCoherent(name string, n *node.Node) Verdict {
	checked, every, diff := n.ScanChecks()
	v := Verdict{Name: "scan-coherent/" + name, Passed: true, Checked: int(checked), Every: every}
	if diff != "" {
		v.fail("%s", diff)
	}
	return v
}

// AllPassed reports whether every verdict passed.
func AllPassed(vs []Verdict) bool {
	for _, v := range vs {
		if !v.Passed {
			return false
		}
	}
	return true
}

// PassFail is a verdict's outcome in one word, as every report prints it.
func PassFail(passed bool) string {
	if passed {
		return "PASS"
	}
	return "FAIL"
}

// SweepLine renders verdicts on one line, "name=PASS name=FAIL ...": an
// in-flight sweep's timeline mark and its row in the soak artifact.
func SweepLine(vs []Verdict) string {
	words := make([]string, len(vs))
	for i, v := range vs {
		words[i] = v.Name + "=" + PassFail(v.Passed)
	}
	return strings.Join(words, " ")
}
