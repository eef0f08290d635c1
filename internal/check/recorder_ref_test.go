package check

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/sim"
	"cloudybench/internal/storage"
)

// This file keeps the history recorder and the history checkers as they
// were before the chunked columnar recorder: a []Event regrown by append,
// one key copy and up to two row clones per event, and checkers that key
// every map by table+"\x00"+key strings and compare EncodeRow strings —
// kept verbatim, renamed with a ref prefix, as the oracle for
// TestRecorderMatchesReference at the end of the file. They define the
// verdicts the recorder's shared index must reproduce, Details included, and
// are not built into the product.

// refRecorder implements engine.Observer, accumulating the full history of the
// database it is attached to. It runs inside the simulation's
// single-runnable discipline and needs no locking.
type refRecorder struct {
	events  []Event
	commits int64
	aborts  int64
}

// newRefRecorder returns an empty recorder; attach it with db.SetObserver.
func newRefRecorder() *refRecorder { return &refRecorder{} }

var _ engine.Observer = (*refRecorder)(nil)

// add appends ev to the history. The key is copied, as rows are (refCloneRow):
// callers encode lookup keys into scratch buffers they reuse, and the engine
// hands observers the caller's bytes.
func (r *refRecorder) add(ev Event) {
	ev.Seq = int64(len(r.events))
	if ev.Key != nil {
		ev.Key = append(engine.Key(nil), ev.Key...)
	}
	r.events = append(r.events, ev)
}

// refCloneRow copies a row preserving nilness (Row.Clone turns nil into an
// empty row, which would erase the absent-row signal).
func refCloneRow(r engine.Row) engine.Row {
	if r == nil {
		return nil
	}
	return r.Clone()
}

// OnRead implements engine.Observer.
func (r *refRecorder) OnRead(at time.Duration, txn uint64, table string, key engine.Key, row engine.Row) {
	r.add(Event{At: at, Txn: txn, Kind: EvRead, Table: table, Key: key, After: refCloneRow(row)})
}

// OnWrite implements engine.Observer.
func (r *refRecorder) OnWrite(at time.Duration, txn uint64, table string, key engine.Key, before, after engine.Row) {
	r.add(Event{At: at, Txn: txn, Kind: EvWrite, Table: table, Key: key, Before: refCloneRow(before), After: refCloneRow(after)})
}

// OnCommit implements engine.Observer.
func (r *refRecorder) OnCommit(at time.Duration, txn uint64) {
	r.commits++
	r.add(Event{At: at, Txn: txn, Kind: EvCommit})
}

// OnAbort implements engine.Observer.
func (r *refRecorder) OnAbort(at time.Duration, txn uint64) {
	r.aborts++
	r.add(Event{At: at, Txn: txn, Kind: EvAbort})
}

// Events returns the recorded history in order.
func (r *refRecorder) Events() []Event { return r.events }

// Counts returns recorded commit and abort totals.
func (r *refRecorder) Counts() (commits, aborts int64) { return r.commits, r.aborts }

// committedTxns returns the set of transaction ids that committed.
func (r *refRecorder) committedTxns() map[uint64]bool {
	out := make(map[uint64]bool)
	for i := range r.events {
		if r.events[i].Kind == EvCommit {
			out[r.events[i].Txn] = true
		}
	}
	return out
}

// refEncRow canonicalizes a row for equality comparison. The sentinel for an
// absent row cannot collide with EncodeRow output, which always begins with
// a column count.
func refEncRow(r engine.Row) string {
	if r == nil {
		return "<absent>"
	}
	return string(engine.EncodeRow(nil, r))
}

// refConservation verifies the T2 money-conservation invariant over the sales
// schema: within every committed transaction, the total credit added to
// CUSTOMER rows equals the O_TOTALAMOUNT of the ORDERS rows the same
// transaction marked PAID — money moves, it is never created or destroyed.
// A transaction that credits a customer without paying an order (or vice
// versa with a mismatched amount) is a violation.
func refConservation(h *refRecorder) Verdict {
	v := Verdict{Name: "conservation", Passed: true}
	committed := h.committedTxns()

	custCredit := core.CustomerSchema().ColIndex("C_CREDIT")
	ordAmount := core.OrdersSchema().ColIndex("O_TOTALAMOUNT")
	ordStatus := core.OrdersSchema().ColIndex("O_STATUS")

	type txnSums struct {
		creditDelta float64
		paidAmount  float64
		touchedCust bool
		touchedOrd  bool
	}
	sums := make(map[uint64]*txnSums)
	get := func(txn uint64) *txnSums {
		s := sums[txn]
		if s == nil {
			s = &txnSums{}
			sums[txn] = s
		}
		return s
	}

	for i := range h.events {
		ev := &h.events[i]
		if ev.Kind != EvWrite || !committed[ev.Txn] {
			continue
		}
		switch ev.Table {
		case core.TableCustomer:
			s := get(ev.Txn)
			s.touchedCust = true
			if ev.Before == nil || ev.After == nil {
				v.fail("txn %d: customer rows must only be updated, saw insert/delete of key %x", ev.Txn, ev.Key)
				continue
			}
			s.creditDelta += ev.After[custCredit].Float() - ev.Before[custCredit].Float()
		case core.TableOrders:
			s := get(ev.Txn)
			s.touchedOrd = true
			if ev.Before == nil || ev.After == nil {
				v.fail("txn %d: order rows must only be updated, saw insert/delete of key %x", ev.Txn, ev.Key)
				continue
			}
			if ev.After[ordStatus].Str() != core.StatusPaid {
				v.fail("txn %d: order update left status %q, want %q", ev.Txn, ev.After[ordStatus].Str(), core.StatusPaid)
			}
			if ev.After[ordAmount].Float() != ev.Before[ordAmount].Float() {
				v.fail("txn %d: order amount changed %.2f -> %.2f", ev.Txn, ev.Before[ordAmount].Float(), ev.After[ordAmount].Float())
			}
			s.paidAmount += ev.Before[ordAmount].Float()
		}
	}
	// Verdict.Details keeps only the first maxDetails violations, so the
	// iteration order here is visible in the chaos report: walk txns in
	// numeric order, not map order.
	txns := make([]uint64, 0, len(sums))
	for txn := range sums {
		txns = append(txns, txn)
	}
	sort.Slice(txns, func(i, j int) bool { return txns[i] < txns[j] })
	for _, txn := range txns {
		s := sums[txn]
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

// refRowBalance verifies the row-count conservation invariant: for every table,
// the live row count must equal the base rows plus committed inserts minus
// committed deletes observed in the history (T1 grows ORDERLINE, T4 shrinks
// it; nothing else changes cardinality). Catches lost or double-applied
// writes on the primary.
func refRowBalance(h *refRecorder, db *engine.DB) Verdict {
	v := Verdict{Name: "row-balance", Passed: true}
	committed := h.committedTxns()

	net := make(map[string]int64)
	for i := range h.events {
		ev := &h.events[i]
		if ev.Kind != EvWrite || !committed[ev.Txn] {
			continue
		}
		switch {
		case ev.Before == nil && ev.After != nil:
			net[ev.Table]++
		case ev.Before != nil && ev.After == nil:
			net[ev.Table]--
		}
	}
	tables := db.Tables()
	for _, name := range sortedTableNames(tables) {
		t := tables[name]
		v.Checked++
		want := t.BaseRows() + net[name]
		if got := t.LiveRows(); got != want {
			v.fail("table %s: live rows %d, want base %d %+d committed net inserts = %d",
				name, got, t.BaseRows(), net[name], want)
		}
	}
	return v
}

// refReadCommitted replays the recorded history and verifies the isolation
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
func refReadCommitted(h *refRecorder) Verdict {
	v := Verdict{Name: "read-committed", Passed: true}

	type keyState struct {
		known bool
		val   string
	}
	state := make(map[string]*keyState)
	pending := make(map[uint64]map[string]string)

	tk := func(table string, key engine.Key) string { return table + "\x00" + string(key) }
	expect := func(txn uint64, k string) (string, bool) {
		if p, ok := pending[txn][k]; ok {
			return p, true
		}
		if st, ok := state[k]; ok && st.known {
			return st.val, true
		}
		return "", false
	}
	learn := func(k, val string) {
		state[k] = &keyState{known: true, val: val}
	}

	for i := range h.events {
		ev := &h.events[i]
		k := tk(ev.Table, ev.Key)
		switch ev.Kind {
		case EvRead:
			v.Checked++
			got := refEncRow(ev.After)
			if want, ok := expect(ev.Txn, k); ok {
				if got != want {
					v.fail("seq %d txn %d: read of %s key %x saw a value that is neither the latest committed one nor its own write",
						ev.Seq, ev.Txn, ev.Table, ev.Key)
				}
			} else {
				learn(k, got)
			}
		case EvWrite:
			v.Checked++
			before := refEncRow(ev.Before)
			if want, ok := expect(ev.Txn, k); ok {
				if before != want {
					v.fail("seq %d txn %d: write to %s key %x has a stale before-image (lost update or lock violation)",
						ev.Seq, ev.Txn, ev.Table, ev.Key)
				}
			} else {
				learn(k, before)
			}
			if pending[ev.Txn] == nil {
				pending[ev.Txn] = make(map[string]string)
			}
			pending[ev.Txn][k] = refEncRow(ev.After)
		case EvCommit:
			for pk, val := range pending[ev.Txn] {
				learn(pk, val)
			}
			delete(pending, ev.Txn)
		case EvAbort:
			delete(pending, ev.Txn)
		}
	}
	return v
}

// refConvergence verifies that a replica's replayed state matches the primary
// byte for byte after quiesce: identical live row counts and identical
// delta overlays (including tombstones — a missing tombstone is a lost
// delete). The caller must quiesce replication first (backlog drained).
func refConvergence(name string, primary, replica *engine.DB) Verdict {
	v := Verdict{Name: "convergence/" + name, Passed: true}
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
		type entry struct {
			key string
			val string
		}
		collect := func(t *engine.Table) []entry {
			var out []entry
			t.ScanDelta(func(k engine.Key, row engine.Row, tombstone bool) bool {
				val := "<tombstone>"
				if !tombstone {
					val = refEncRow(row)
				}
				out = append(out, entry{key: string(k), val: val})
				return true
			})
			return out
		}
		pd, rd := collect(pt), collect(rt)
		v.Checked += len(pd)
		if len(pd) != len(rd) {
			v.fail("table %s: primary delta has %d entries, replica %d", tname, len(pd), len(rd))
			continue
		}
		for i := range pd {
			if pd[i].key != rd[i].key {
				v.fail("table %s: delta key mismatch at entry %d", tname, i)
				break
			}
			if pd[i].val != rd[i].val {
				v.fail("table %s: row divergence at key %x", tname, []byte(pd[i].key))
				break
			}
		}
	}
	return v
}

// refKeyRef locates one touched key for final-state lookup.
type refKeyRef struct {
	table string
	key   engine.Key
}

// refDurabilityExpectations walks the history once, returning every touched
// key in first-touch order, the value the committed history says it must
// end at (baseline until a committed write lands), and the after-images
// non-committed transactions wrote to it.
func refDurabilityExpectations(h *refRecorder) (order []string, refs map[string]refKeyRef, expected map[string]string, zombie map[string]map[string][]uint64) {
	committed := h.committedTxns()
	refs = make(map[string]refKeyRef)
	expected = make(map[string]string)
	zombie = make(map[string]map[string][]uint64)
	for i := range h.events {
		ev := &h.events[i]
		if ev.Kind != EvWrite {
			continue
		}
		k := ev.Table + "\x00" + string(ev.Key)
		if _, ok := refs[k]; !ok {
			refs[k] = refKeyRef{table: ev.Table, key: append(engine.Key(nil), ev.Key...)}
			order = append(order, k)
			// Until a committed write lands, the key must end at the value
			// it held when first touched: the before-image of the first
			// write is that baseline (write order per key is lock order).
			expected[k] = refEncRow(ev.Before)
		}
		if committed[ev.Txn] {
			expected[k] = refEncRow(ev.After)
		} else {
			img := refEncRow(ev.After)
			if zombie[k] == nil {
				zombie[k] = make(map[string][]uint64)
			}
			zombie[k][img] = append(zombie[k][img], ev.Txn)
		}
	}
	return order, refs, expected, zombie
}

// refFinalValue reads a key's committed value from the post-recovery database.
func refFinalValue(db *engine.DB, ref refKeyRef) string {
	row, _, ok := db.ReadInto(ref.table, ref.key, nil)
	if !ok {
		return refEncRow(nil)
	}
	return refEncRow(row)
}

// refDurability verifies that after every crash and recovery in the run, each
// touched key's final value is exactly what the acknowledged-commit history
// dictates: the after-image of the last committed write, or the key's
// baseline if no write to it ever committed. A divergence means an acked
// commit was lost, a doomed write survived, or recovery mangled a value —
// run refNoResurrection alongside to classify which.
func refDurability(name string, h *refRecorder, db *engine.DB) Verdict {
	v := Verdict{Name: "durability/" + name, Passed: true}
	order, refs, expected, _ := refDurabilityExpectations(h)
	for _, k := range order {
		v.Checked++
		ref := refs[k]
		if got := refFinalValue(db, ref); got != expected[k] {
			v.fail("table %s key %x: final value diverges from the last acknowledged commit",
				ref.table, ref.key)
		}
	}
	return v
}

// refNoResurrection verifies that no key ends the run holding a value that
// only a non-committed transaction ever wrote: an in-flight loser the crash
// took, or a rolled-back abort. Such a zombie value means recovery failed
// to undo a loser (or applied a torn tail) — the client was told "not
// committed" yet the write is visible.
func refNoResurrection(name string, h *refRecorder, db *engine.DB) Verdict {
	v := Verdict{Name: "no-resurrection/" + name, Passed: true}
	order, refs, expected, zombie := refDurabilityExpectations(h)
	for _, k := range order {
		images := zombie[k]
		if len(images) == 0 {
			continue
		}
		v.Checked++
		ref := refs[k]
		got := refFinalValue(db, ref)
		if got == expected[k] {
			continue // committed value wins, even if some zombie wrote the same bytes
		}
		if txns, ok := images[got]; ok {
			v.fail("table %s key %x: holds a value only non-committed txn %d wrote (resurrected write)",
				ref.table, ref.key, txns[0])
		}
	}
	return v
}

// Before returns a recorder holding only the history strictly before the
// given instant, with commit/abort totals recomputed over that prefix. After
// a partition fail-over the old primary's post-rejoin replay mutates its DB
// without observer callbacks, so state-bound invariants (conservation,
// read-committed) are judged on the pre-fail-over prefix of its history.
func (r *refRecorder) Before(at time.Duration) *refRecorder {
	out := &refRecorder{}
	for i := range r.events {
		ev := r.events[i]
		if ev.At >= at {
			break
		}
		out.events = append(out.events, ev)
		switch ev.Kind {
		case EvCommit:
			out.commits++
		case EvAbort:
			out.aborts++
		}
	}
	return out
}

// tee shows every callback to the recorder under test and to the reference.
type tee struct {
	rec *Recorder
	ref *refRecorder
}

func (t tee) OnRead(at time.Duration, txn uint64, table string, key engine.Key, row engine.Row) {
	t.rec.OnRead(at, txn, table, key, row)
	t.ref.OnRead(at, txn, table, key, row)
}

func (t tee) OnWrite(at time.Duration, txn uint64, table string, key engine.Key, before, after engine.Row) {
	t.rec.OnWrite(at, txn, table, key, before, after)
	t.ref.OnWrite(at, txn, table, key, before, after)
}

func (t tee) OnCommit(at time.Duration, txn uint64) {
	t.rec.OnCommit(at, txn)
	t.ref.OnCommit(at, txn)
}

func (t tee) OnAbort(at time.Duration, txn uint64) {
	t.rec.OnAbort(at, txn)
	t.ref.OnAbort(at, txn)
}

// diffFloats are the float images the histories draw from: both zeros, two
// NaNs with different payloads, and ordinary values. The row encoding tells
// −0 from +0 and NaN payloads apart, and Value.Equal does neither.
var diffFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8000000000001), 1.5, 10, 100}

var diffStrings = []string{"c", "sku", core.StatusNew, core.StatusPaid}

// diffRun drives one seeded history through real engines, with fabricated
// callbacks mixed in, into a Recorder and a refRecorder at once.
type diffRun struct {
	t       *testing.T
	r       *rand.Rand
	s       *sim.Sim
	obs     tee
	primary *engine.DB
	other   *engine.DB   // a second engine sharing the recorder (its txn ids collide with the primary's)
	dbs     []*engine.DB // every engine the recorder watched
	fake    uint64       // next fabricated txn id
	// resurrections counts crashes after which the primary, its losers
	// applied back, failed no-resurrection at once.
	resurrections int
	// Which invariant this seed deliberately violates (several may be set).
	injectConservation, injectRowBalance, injectReadCommitted, injectDurability, injectResurrection bool
}

func newDiffRun(t *testing.T, seed int64) *diffRun {
	r := rand.New(rand.NewSource(seed))
	d := &diffRun{
		t: t, r: r, s: sim.New(time.Unix(0, 0)),
		obs:                 tee{rec: NewRecorder(), ref: newRefRecorder()},
		fake:                1 << 40,
		injectConservation:  r.Intn(3) == 0,
		injectRowBalance:    r.Intn(4) == 0,
		injectReadCommitted: r.Intn(3) == 0,
		injectDurability:    r.Intn(4) == 0,
		injectResurrection:  r.Intn(3) == 0,
	}
	d.primary = d.attach()
	return d
}

// attach builds a fresh sales database watched by the shared recorders.
func (d *diffRun) attach() *engine.DB {
	db := salesDB(d.s)
	db.SetObserver(d.obs)
	d.dbs = append(d.dbs, db)
	return db
}

// randRow builds a row for table under primary key id.
func (d *diffRun) randRow(t *engine.Table, id int64) engine.Row {
	row := make(engine.Row, len(t.Schema.Cols))
	for i, c := range t.Schema.Cols {
		switch {
		case i == 0:
			row[i] = engine.Int(id)
		case c.Kind == engine.KindInt:
			row[i] = engine.Int(1 + d.r.Int63n(5))
		case c.Kind == engine.KindFloat:
			row[i] = engine.Float(diffFloats[d.r.Intn(len(diffFloats))])
		default:
			row[i] = engine.Str(diffStrings[d.r.Intn(len(diffStrings))])
		}
	}
	return row
}

// pay is the T2 shape: mark an order PAID and credit its customer by the
// order's amount. It ends the txn itself on a missing row.
func (d *diffRun) pay(p *sim.Proc, db *engine.DB, tx *engine.Txn) {
	orders, customers := db.Table(core.TableOrders), db.Table(core.TableCustomer)
	oid := engine.IntKey(1 + d.r.Int63n(5))
	row, _, err := tx.GetForUpdate(orders, oid)
	if err != nil {
		return
	}
	upd := row.Clone()
	upd[4] = engine.Str(core.StatusPaid)
	tx.Update(orders, oid, upd)
	p.Sleep(time.Microsecond)
	cid := engine.IntKey(row[1].Int())
	crow, _, err := tx.GetForUpdate(customers, cid)
	if err != nil {
		return
	}
	cupd := crow.Clone()
	cupd[2] = engine.Float(crow[2].Float() + row[2].Float())
	tx.Update(customers, cid, cupd)
}

// ops runs n random point operations. Customer and order rows are only read
// unless the seed violates conservation; keys recur within the txn.
func (d *diffRun) ops(p *sim.Proc, db *engine.DB, tx *engine.Txn, n int) {
	var touched []int64
	for i := 0; i < n; i++ {
		t := db.Table(core.TableOrderline)
		writable := true
		if d.r.Intn(4) == 0 {
			t = db.Table([]string{core.TableCustomer, core.TableOrders}[d.r.Intn(2)])
			writable = d.injectConservation
		}
		id := 1 + d.r.Int63n(t.MaxID()+2) // past MaxID: reads of absent rows
		if len(touched) > 0 && d.r.Intn(3) == 0 {
			id = touched[d.r.Intn(len(touched))]
		}
		touched = append(touched, id)
		k := engine.IntKey(id)
		switch op := d.r.Intn(6); {
		case op == 0 || !writable:
			tx.Get(t, k)
		case op == 1:
			tx.GetForUpdate(t, k)
		case op <= 3:
			tx.Update(t, k, d.randRow(t, id))
		case op == 4:
			tx.Delete(t, k)
		default:
			if d.r.Intn(2) == 0 {
				id = t.NextAutoID()
			}
			tx.Insert(t, d.randRow(t, id))
		}
		p.Sleep(time.Duration(d.r.Intn(3)) * time.Microsecond)
	}
}

// txn runs one transaction to commit or abort.
func (d *diffRun) txn(p *sim.Proc, db *engine.DB) {
	tx := db.Begin(p)
	if d.r.Intn(3) == 0 {
		d.pay(p, db, tx)
	} else {
		d.ops(p, db, tx, 1+d.r.Intn(5))
	}
	if d.r.Intn(4) == 0 {
		tx.Abort()
	} else {
		tx.Commit()
	}
}

// current returns db's committed image of table/id (no txn is open on db).
func current(db *engine.DB, table string, id int64) engine.Row {
	row, _, ok := db.ReadInto(table, engine.IntKey(id), nil)
	if !ok {
		return nil
	}
	return row.Clone()
}

// inject fabricates one violation of each invariant the seed asked for, as
// callbacks no engine made.
func (d *diffRun) inject(p *sim.Proc, db *engine.DB) {
	at := p.Elapsed()
	next := func() uint64 { d.fake++; return d.fake }
	if d.injectConservation && d.r.Intn(2) == 0 { // a credit with no order paid
		cust := current(db, core.TableCustomer, 1)
		if cust == nil {
			cust = d.randRow(db.Table(core.TableCustomer), 1)
		}
		credited := cust.Clone()
		credited[2] = engine.Float(cust[2].Float() + 7)
		txn := next()
		d.obs.OnWrite(at, txn, core.TableCustomer, engine.IntKey(1), cust, credited)
		d.obs.OnCommit(at, txn)
	}
	if d.injectRowBalance && d.r.Intn(2) == 0 { // a committed insert the table never got
		txn, id := next(), int64(1000+d.r.Intn(50))
		d.obs.OnWrite(at, txn, core.TableOrderline, engine.IntKey(id), nil, d.randRow(db.Table(core.TableOrderline), id))
		d.obs.OnCommit(at, txn)
	}
	if d.injectReadCommitted && d.r.Intn(2) == 0 { // a read of a value nobody committed
		id := 1 + d.r.Int63n(8)
		row := current(db, core.TableOrderline, id)
		if row != nil {
			// Flip the sign of a zero if there is one: only the
			// encoding's semantics see that as a different value.
			if row[4].Float() == 0 {
				row[4] = engine.Float(-row[4].Float())
			} else {
				row[4] = engine.Float(row[4].Float() + 1)
			}
		}
		d.obs.OnRead(at, next(), core.TableOrderline, engine.IntKey(id), row)
	}
	if d.injectDurability && d.r.Intn(2) == 0 { // an acknowledged update that never landed
		id := 1 + d.r.Int63n(8)
		if before := current(db, core.TableOrderline, id); before != nil {
			after := before.Clone()
			after[3] = engine.Int(after[3].Int() + 1)
			txn := next()
			d.obs.OnWrite(at, txn, core.TableOrderline, engine.IntKey(id), before, after)
			d.obs.OnCommit(at, txn)
		}
	}
}

// crash leaves a writing txn in flight, sometimes drags its records into
// the durable log with a committed successor, crashes the primary's log and
// recovers a fresh primary from it. When the seed violates no-resurrection,
// the losers' logged images are then applied back to the recovered primary,
// as if recovery had skipped its undo pass, and both implementations judge
// the primary at once.
func (d *diffRun) crash(p *sim.Proc) {
	loser := d.primary.Begin(p)
	d.ops(p, d.primary, loser, 1+d.r.Intn(3))
	if d.r.Intn(2) == 0 {
		ol := d.primary.Table(core.TableOrderline)
		tx := d.primary.Begin(p)
		id := ol.NextAutoID()
		tx.Insert(ol, d.randRow(ol, id))
		tx.Commit()
	}
	tail, _ := d.primary.Log().Crash(storage.TornMode(d.r.Intn(3)))
	prev := d.primary
	d.primary = d.attach()
	if _, err := d.primary.Recover(prev.Log().Snapshot(), tail); err != nil {
		d.t.Fatalf("recover: %v", err)
	}
	if d.injectResurrection && resurrectLosers(d.t, prev.Log().Snapshot(), d.primary) > 0 {
		got, want := NoResurrection("rw", d.obs.rec, d.primary), refNoResurrection("rw", d.obs.ref, d.primary)
		if !reflect.DeepEqual(got, want) {
			d.t.Fatalf("after resurrection: verdict differs from the reference:\n got  %#v\n want %#v", got, want)
		}
		if !got.Passed {
			d.resurrections++
		}
	}
}

// run drives the whole history: a few phases on the primary or on a second
// engine, each ending, sometimes, in a crash or with a txn that never ends.
func (d *diffRun) run() {
	d.s.Go("client", func(p *sim.Proc) {
		for phase := 0; phase < 4; phase++ {
			db, onOther := d.primary, d.r.Intn(3) == 0
			if onOther {
				if d.other == nil {
					d.other = d.attach()
				}
				db = d.other
			}
			for i, n := 0, 5+d.r.Intn(15); i < n; i++ {
				if d.r.Intn(5) == 0 {
					d.inject(p, db)
				}
				d.txn(p, db)
				p.Sleep(time.Duration(d.r.Intn(3)) * time.Microsecond)
			}
			switch {
			case onOther && d.r.Intn(2) == 0:
				d.ops(p, db, db.Begin(p), 1+d.r.Intn(3)) // never finishes; the engine is retired
				d.other = nil
			case !onOther && d.r.Intn(2) == 0:
				d.crash(p)
			}
		}
		d.inject(p, d.primary)
	})
	if err := d.s.Run(); err != nil {
		d.t.Fatalf("sim: %v", err)
	}
}

// more fabricates n further events: reads and writes of random keys by
// fabricated txns, some of which commit, abort or never finish.
func (d *diffRun) more(obs engine.Observer, at time.Duration, n int) {
	ol := d.primary.Table(core.TableOrderline)
	for i := 0; i < n; i++ {
		txn := d.fake - uint64(d.r.Intn(3))
		id := 1 + d.r.Int63n(12)
		switch d.r.Intn(5) {
		case 0:
			obs.OnRead(at, txn, core.TableOrderline, engine.IntKey(id), nil)
		case 1:
			obs.OnRead(at, txn, core.TableOrderline, engine.IntKey(id), d.randRow(ol, id))
		case 2:
			obs.OnWrite(at, txn, core.TableOrderline, engine.IntKey(id), d.randRow(ol, id), d.randRow(ol, id))
		case 3:
			obs.OnCommit(at, txn)
		default:
			obs.OnAbort(at, txn)
		}
	}
}

// sameRows reports exact equality: nil-ness, length, and every field of
// every value, floats by their bits.
func sameRows(a, b engine.Row) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Kind != y.Kind || x.Int() != y.Int() || x.Str() != y.Str() || math.Float64bits(x.Float()) != math.Float64bits(y.Float()) {
			return false
		}
	}
	return true
}

func sameEvent(a, b Event) bool {
	return a.Seq == b.Seq && a.At == b.At && a.Txn == b.Txn && a.Kind == b.Kind && a.Table == b.Table &&
		(a.Key == nil) == (b.Key == nil) && bytes.Equal(a.Key, b.Key) &&
		sameRows(a.Before, b.Before) && sameRows(a.After, b.After)
}

// verdictCoverage counts, per verdict name, how often it was seen failing
// and passing, so the test can insist the oracle saw both.
type verdictCoverage map[string][2]int

// compare requires rec to reproduce ref: its events, counts and every
// history verdict, against every engine the run built.
func (d *diffRun) compare(label string, rec *Recorder, ref *refRecorder, cov verdictCoverage) {
	t := d.t
	got, want := rec.Events(), ref.Events()
	if len(got) != len(want) {
		t.Fatalf("%s: Events() has %d events, reference %d", label, len(got), len(want))
	}
	for i := range got {
		if !sameEvent(got[i], want[i]) {
			t.Fatalf("%s: event %d differs:\n got  %+v\n want %+v", label, i, got[i], want[i])
		}
	}
	gc, ga := rec.Counts()
	if wc, wa := ref.Counts(); gc != wc || ga != wa {
		t.Fatalf("%s: Counts() = %d/%d, reference %d/%d", label, gc, ga, wc, wa)
	}
	pairs := [][2]Verdict{
		{Conservation(rec), refConservation(ref)},
		{ReadCommitted(rec), refReadCommitted(ref)},
	}
	for _, db := range d.dbs {
		pairs = append(pairs,
			[2]Verdict{RowBalance(rec, db), refRowBalance(ref, db)},
			[2]Verdict{Durability("rw", rec, db), refDurability("rw", ref, db)},
			[2]Verdict{NoResurrection("rw", rec, db), refNoResurrection("rw", ref, db)},
		)
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p[0], p[1]) {
			t.Fatalf("%s: verdict differs from the reference:\n got  %#v\n want %#v", label, p[0], p[1])
		}
		c := cov[p[0].Name]
		c[btoi(p[0].Passed)]++
		cov[p[0].Name] = c
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestRecorderMatchesReference is the differential oracle for the chunked
// recorder and its shared judge index: seeded histories through real
// engines — several sharing one recorder across crashes, recoveries whose
// losers may be applied back afterwards, and a second engine whose txn ids
// collide with the primary's — with inserts, updates, deletes, reads of
// absent rows, aborts, txns that never finish, repeated writes to one key,
// NaN and −0 images and fabricated violations of every invariant, judged by
// both implementations.
// Every verdict must match field for field, Details in order, and so must
// Events(), Counts() and the same for Before(at) views at random instants,
// for views and parents that go on recording, and for Convergence between
// every pair of the run's engines.
func TestRecorderMatchesReference(t *testing.T) {
	cov := verdictCoverage{}
	events, resurrections := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		d := newDiffRun(t, seed)
		d.run()
		rec, ref := d.obs.rec, d.obs.ref
		events += rec.n
		resurrections += d.resurrections
		label := fmt.Sprintf("seed %d", seed)
		d.compare(label, rec, ref, cov)
		d.compare(label+" (index reused)", rec, ref, cov)

		all := rec.Events()
		end := all[len(all)-1].At + time.Microsecond
		var kept *Recorder
		var keptRef *refRecorder
		for i := 0; i < 4; i++ {
			at := time.Duration(d.r.Int63n(int64(end) + 1))
			if i%2 == 0 {
				at = all[d.r.Intn(len(all))].At // an event's own instant: the cut is strict
			}
			view, refView := rec.Before(at), ref.Before(at)
			vlabel := fmt.Sprintf("%s Before(%v)", label, at)
			d.compare(vlabel, view, refView, cov)
			if i == 0 {
				// The view and its parent both go on recording; neither
				// may see the other's events.
				d.more(tee{rec: view, ref: refView}, end, 40)
				d.compare(vlabel+" then recorded into", view, refView, cov)
				d.compare(label+" after its view recorded", rec, ref, cov)
				kept, keptRef = view, refView
			}
		}
		d.more(d.obs, end, 60)
		d.compare(label+" grown after judgement", rec, ref, cov)
		d.compare(label+" view after its parent grew", kept, keptRef, cov)

		for _, p := range d.dbs {
			for _, r := range d.dbs {
				got, want := Convergence("ro", p, r), refConvergence("ro", p, r)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: convergence differs from the reference:\n got  %#v\n want %#v", label, got, want)
				}
				c := cov[got.Name]
				c[btoi(got.Passed)]++
				cov[got.Name] = c
			}
		}
	}
	for name, c := range cov {
		if c[0] == 0 || c[1] == 0 {
			t.Errorf("%s: seen failing %d and passing %d times — the histories must exercise both", name, c[0], c[1])
		}
	}
	if resurrections == 0 {
		t.Error("no crash's losers, applied back, failed no-resurrection: the injection is vacuous")
	}
	t.Logf("coverage %v, %d events, %d resurrections caught", cov, events, resurrections)
	if len(cov) != 6 || events < 5000 {
		t.Errorf("oracle too small to mean anything: %d verdicts covered, %d events", len(cov), events)
	}
}
