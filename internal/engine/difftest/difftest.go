// Package difftest is the differential harness for secondary indexes: it
// intercepts every read-only scan a workload suite issues and executes it
// twice — once through the index (PlanForceIndex) and once through the
// full-scan oracle (PlanForceScan) — asserting byte-identical results.
//
// The two plans run back to back inside the interception, with no
// simulation yields between them, so the table state cannot change in the
// middle: any divergence is an index-maintenance bug, not a race. Because
// the hook rides core.Config.ScanOverride, the harness composes with every
// registered suite, every SUT profile, and the chaos and partition
// gauntlets without those layers knowing it is there.
package difftest

import (
	"bytes"
	"fmt"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/sim"
)

// Differ is the dual-plan comparator. Install Scan as a suite run's
// ScanOverride; after the run, Compared counts the scans checked and
// Diffs holds the first divergences found (empty means the index plan was
// indistinguishable from the oracle on every scan).
type Differ struct {
	Compared int64
	Diffs    []string
}

const maxDiffs = 5

func (d *Differ) record(format string, args ...any) {
	if len(d.Diffs) < maxDiffs {
		d.Diffs = append(d.Diffs, fmt.Sprintf(format, args...))
	}
}

// Scan is a core.ScanFunc: it runs the scan under both plans on the routed
// node, byte-compares primary keys and rows, then charges the node the
// normal scan cost and returns the index plan's rows — the suite paces and
// behaves as if the planner ran alone.
func (d *Differ) Scan(p *sim.Proc, n *node.Node, table string, col int, lo, hi engine.Value, limit int) ([]engine.Row, error) {
	if err := n.AwaitRunning(p); err != nil {
		return nil, err
	}
	tbl := n.DB.Table(table)
	if tbl == nil {
		return nil, fmt.Errorf("difftest: no table %q on node %s", table, n.Name)
	}
	res, err := d.compare(tbl, col, lo, hi, limit)
	if err != nil {
		return nil, err
	}
	n.ScanCharge(p, res.Pages)
	return res.Rows, nil
}

// Compare executes one range query under both plans on a table and records
// any divergence. Exposed so a test can drive it on a table without a
// deployment (the engine's recovery differential test).
func (d *Differ) Compare(tbl *engine.Table, col int, lo, hi engine.Value, limit int) ([]engine.Row, error) {
	res, err := d.compare(tbl, col, lo, hi, limit)
	return res.Rows, err
}

func (d *Differ) compare(tbl *engine.Table, col int, lo, hi engine.Value, limit int) (engine.ScanResult, error) {
	table := tbl.Schema.Name
	ixRes, ixErr := tbl.SelectRange(col, lo, hi, limit, engine.PlanForceIndex)
	scRes, scErr := tbl.SelectRange(col, lo, hi, limit, engine.PlanForceScan)
	d.Compared++
	if (ixErr == nil) != (scErr == nil) {
		d.record("%s.%s [%v,%v]: plans disagree on error: index=%v scan=%v",
			table, tbl.Schema.Cols[col].Name, lo, hi, ixErr, scErr)
		return ixRes, ixErr
	}
	if ixErr != nil {
		return ixRes, ixErr
	}
	if len(ixRes.PKs) != len(scRes.PKs) {
		d.record("%s.%s [%v,%v] limit %d: index returned %d rows, oracle %d",
			table, tbl.Schema.Cols[col].Name, lo, hi, limit, len(ixRes.PKs), len(scRes.PKs))
		return ixRes, nil
	}
	for i := range ixRes.PKs {
		if !bytes.Equal(ixRes.PKs[i], scRes.PKs[i]) {
			d.record("%s.%s [%v,%v]: pk %d differs: index %x, oracle %x",
				table, tbl.Schema.Cols[col].Name, lo, hi, i, ixRes.PKs[i], scRes.PKs[i])
			return ixRes, nil
		}
		iv := engine.EncodeRow(nil, ixRes.Rows[i])
		sv := engine.EncodeRow(nil, scRes.Rows[i])
		if !bytes.Equal(iv, sv) {
			d.record("%s.%s [%v,%v]: row for pk %x differs between plans",
				table, tbl.Schema.Cols[col].Name, lo, hi, ixRes.PKs[i])
			return ixRes, nil
		}
	}
	return ixRes, nil
}

// Clean reports whether every compared scan matched the oracle.
func (d *Differ) Clean() bool { return len(d.Diffs) == 0 }
