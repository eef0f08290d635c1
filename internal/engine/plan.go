package engine

import (
	"bytes"
	"fmt"
	"sort"

	"cloudybench/internal/storage"
)

// PlanKind reports which access path served a query.
type PlanKind int

// Plan kinds.
const (
	PlanFullScan PlanKind = iota
	PlanIndexScan
)

func (k PlanKind) String() string {
	if k == PlanIndexScan {
		return "index-scan"
	}
	return "full-scan"
}

// IndexScanMaxFraction is the planner's selectivity cliff: ranges estimated
// to select at most this fraction of the column domain go through the
// index; wider ranges pay the sequential scan (which reads pages in order
// instead of chasing heap pointers).
const IndexScanMaxFraction = 0.25

// ScanResult is the outcome of a range query.
type ScanResult struct {
	// PKs and Rows are the matching primary keys and rows, ordered by
	// (indexed column value, primary key) — identical for both plans, which
	// is the oracle property CrossCheck tests.
	PKs  []Key
	Rows []Row
	// Pages are the distinct physical pages the plan touched, in first-touch
	// order: index pages then heap pages for an index scan, every table page
	// for a full scan. The node layer charges buffer traffic from it.
	Pages []storage.PageID
	Plan  PlanKind
}

// SelectRange returns visible rows whose column col value lies in [lo, hi],
// ordered by (column value, primary key). limit > 0 caps the result (taken
// in order, so both plans truncate identically). The selectivity rule picks
// the plan: the index scan when col has an index and the estimated selected
// fraction is at most IndexScanMaxFraction, the full scan otherwise. The
// scan is lock-free and atomic (no simulation yields): replicas use it
// directly, transactions wrap it with lock acquisition.
func (t *Table) SelectRange(col int, lo, hi Value, limit int) (ScanResult, error) {
	if col < 0 || col >= len(t.Schema.Cols) {
		return ScanResult{}, fmt.Errorf("engine: scan column %d out of range for table %s", col, t.Schema.Name)
	}
	if ix := t.ixByCol[col]; ix != nil && t.estimateFraction(ix, lo, hi) <= IndexScanMaxFraction {
		t.ixScans++
		return t.indexScan(ix, lo, hi, limit), nil
	}
	t.fullScans++
	return t.fullScan(col, lo, hi, limit), nil
}

// estimateFraction estimates the fraction of rows a range selects without
// walking it: numeric domains interpolate the range width against the
// index's current [min, max] bounds; string domains and point lookups are
// assumed selective. This is the "simple selectivity rule" — a real
// optimizer would use histograms.
func (t *Table) estimateFraction(ix *Index, lo, hi Value) float64 {
	if bytes.Equal(EncodeKey(lo), EncodeKey(hi)) {
		return 0 // point lookup
	}
	min, max, ok := ix.Bounds()
	if !ok {
		return 0 // empty index: the scan is free either way
	}
	switch {
	case lo.Kind == KindInt && hi.Kind == KindInt && min.Kind == KindInt && max.Kind == KindInt:
		domain := max.Int() - min.Int() + 1
		if domain <= 0 {
			return 0
		}
		width := hi.Int() - lo.Int() + 1
		if width <= 0 {
			return 0
		}
		return float64(width) / float64(domain)
	case lo.Kind == KindFloat && hi.Kind == KindFloat && min.Kind == KindFloat && max.Kind == KindFloat:
		domain := max.Float() - min.Float()
		if domain <= 0 {
			return 0
		}
		width := hi.Float() - lo.Float()
		if width <= 0 {
			return 0
		}
		return width / domain
	default:
		return 0
	}
}

func (t *Table) indexScan(ix *Index, lo, hi Value, limit int) ScanResult {
	res := ScanResult{Plan: PlanIndexScan}
	seen := t.scanSeen
	if seen == nil {
		seen = make(map[storage.PageID]struct{})
		t.scanSeen = seen
	}
	clear(seen)
	touch := func(pg storage.PageID) {
		if _, ok := seen[pg]; !ok {
			seen[pg] = struct{}{}
			res.Pages = append(res.Pages, pg)
		}
	}
	ix.Scan(lo, hi, func(pk Key, ixPage storage.PageID) bool {
		touch(ixPage)
		row, heapPage, ok := t.Get(pk)
		if !ok {
			panic(fmt.Sprintf("engine: index %s entry for missing row %s", ix.Name, pk))
		}
		touch(heapPage)
		res.PKs = append(res.PKs, pk)
		res.Rows = append(res.Rows, row)
		return limit <= 0 || len(res.Rows) < limit
	})
	return res
}

func (t *Table) fullScan(col int, lo, hi Value, limit int) ScanResult {
	res := ScanResult{Plan: PlanFullScan}
	loK, hiK := EncodeKey(lo), EncodeKey(hi)
	// VisibleScan reuses its key and row, so a match keeps copies: the pk
	// as the tail of its sort key, the row's values in vals.
	type match struct {
		sortKey     Key // the column value's encoding, then the pk
		pkAt        int
		rowAt, rowN int // the row's copy is vals[rowAt:rowN]
	}
	var matches []match
	var vals []Value
	var vK Key // every visited row's value encodes here; matches copy it
	t.VisibleScan(func(pk Key, r Row) bool {
		vK = AppendKey(vK[:0], r[col])
		if bytes.Compare(vK, loK) < 0 || bytes.Compare(vK, hiK) > 0 {
			return true
		}
		sortKey := append(append(make(Key, 0, len(vK)+len(pk)), vK...), pk...)
		matches = append(matches, match{sortKey: sortKey, pkAt: len(vK), rowAt: len(vals), rowN: len(vals) + len(r)})
		vals = append(vals, r...)
		return true
	})
	sort.Slice(matches, func(i, j int) bool {
		return bytes.Compare(matches[i].sortKey, matches[j].sortKey) < 0
	})
	if limit > 0 && len(matches) > limit {
		matches = matches[:limit]
	}
	for _, m := range matches {
		res.PKs = append(res.PKs, m.sortKey[m.pkAt:])
		res.Rows = append(res.Rows, vals[m.rowAt:m.rowN:m.rowN])
	}
	// A sequential scan touches every page of the table.
	for num := uint64(0); num < t.Pages(); num++ {
		res.Pages = append(res.Pages, storage.PageID{Table: t.ID, Num: num})
	}
	return res
}

// CrossCheck re-runs the range query that res answered under the plan res
// did not use — the full-scan oracle for an index scan, the index for a full
// scan — and compares the two results' primary keys and encoded rows byte
// for byte. It reports false when col has no index (there is no second
// plan), and an error naming the first divergence. Like SelectRange it is
// atomic; unlike it, it leaves ScanStats alone.
func (t *Table) CrossCheck(res ScanResult, col int, lo, hi Value, limit int) (bool, error) {
	ix := t.ixByCol[col]
	if ix == nil {
		return false, nil
	}
	index, oracle := res, t.fullScan(col, lo, hi, limit)
	if res.Plan == PlanFullScan {
		index, oracle = t.indexScan(ix, lo, hi, limit), res
	}
	where := func() string {
		return fmt.Sprintf("%s.%s [%v,%v] limit %d", t.Schema.Name, t.Schema.Cols[col].Name, lo, hi, limit)
	}
	if len(index.PKs) != len(oracle.PKs) {
		return true, fmt.Errorf("%s: index returned %d rows, oracle %d", where(), len(index.PKs), len(oracle.PKs))
	}
	var iv, ov []byte
	for i := range index.PKs {
		if !bytes.Equal(index.PKs[i], oracle.PKs[i]) {
			return true, fmt.Errorf("%s: pk %d differs: index %x, oracle %x", where(), i, index.PKs[i], oracle.PKs[i])
		}
		iv, ov = EncodeRow(iv[:0], index.Rows[i]), EncodeRow(ov[:0], oracle.Rows[i])
		if !bytes.Equal(iv, ov) {
			return true, fmt.Errorf("%s: row for pk %x differs between plans", where(), index.PKs[i])
		}
	}
	return true, nil
}

// ScanStats returns how many range queries each plan has served on this
// table.
func (t *Table) ScanStats() (indexScans, fullScans int64) {
	return t.ixScans, t.fullScans
}
