// Package baselines defines the two comparison workloads of paper §III-I
// (Figure 9) as core suites: a SysBench-style oltp_read_write
// microbenchmark and a TPC-C macrobenchmark. Figure 9 runs both on
// core.Runner at a constant thread count, which is exactly why the paper
// shows they barely exercise a serverless database's scaling range, while
// CloudyBench's peak-and-valley patterns drive it across its whole capacity
// span. Neither suite is registered, so the registry's consumers (run
// suites, the partition gauntlet, difftest) do not load their tables on
// every SUT.
package baselines

import (
	"errors"

	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/rng"
)

// The paper's sysbench configuration: three sbtest tables of 300,000 rows
// (~226 MB). One oltp_read_write event follows sysbench defaults scaled
// down: point selects dominate, plus indexed and non-indexed updates and a
// delete+insert pair.
const (
	sbTables          = 3
	sbRowsPerTable    = 300_000
	sbPointSelects    = 10
	sbIndexUpdates    = 1
	sbNonIndexUpdates = 1
	sbDeleteInserts   = 1
	sbRowBytes        = 200 // id + k + c(120) + pad(60)
)

var sbTableNames = [sbTables]string{"sbtest1", "sbtest2", "sbtest3"}

// SysBench models the sysbench oltp_read_write workload the paper compares
// against (§III-I): independent point reads and writes over the sbtest
// tables with no cross-operation transaction logic. The paper runs one
// fixed size, so the scale factor is ignored.
var SysBench = &core.Suite{
	Name:   "sysbench",
	Desc:   "sysbench oltp_read_write over three 300k-row sbtest tables",
	Tables: sbCreateTables,
	Ops: func(int) []core.SuiteOp {
		return []core.SuiteOp{{Name: "oltp_read_write", Weight: 1, Run: sbReadWrite}}
	},
}

func sbSchema(i int) *engine.Schema {
	return &engine.Schema{
		Name: sbTableNames[i],
		Cols: []engine.Column{
			{Name: "id", Kind: engine.KindInt},
			{Name: "k", Kind: engine.KindInt},
			{Name: "c", Kind: engine.KindString},
			{Name: "pad", Kind: engine.KindString},
		},
		KeyCols:     []int{0},
		AvgRowBytes: sbRowBytes,
	}
}

// sbCreateTables registers the sbtest tables with generator-backed rows.
func sbCreateTables(db *engine.DB, _ int, seed int64) error {
	for i := 0; i < sbTables; i++ {
		tag := uint64(0x5B7E57 + i)
		gen := func(dst engine.Row, id int64) engine.Row {
			r := rng.QuickOf(seed, tag, id)
			return append(dst[:0],
				engine.Int(id),
				engine.Int(r.Int63n(sbRowsPerTable)+1),
				engine.Str(r.Letters(32)),
				engine.Str(r.Letters(16)),
			)
		}
		if _, err := db.CreateTable(sbSchema(i), sbRowsPerTable, gen); err != nil {
			return err
		}
	}
	return nil
}

// sbReadWrite executes one oltp_read_write event.
func sbReadWrite(c *core.OpCtx) error {
	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	var tables [sbTables]*engine.Table
	for i := range tables {
		tables[i] = c.Node.DB.Table(sbTableNames[i])
	}
	pick := func() (*engine.Table, engine.Key) {
		tbl := tables[c.Src.Intn(sbTables)]
		return tbl, engine.IntKey(c.Src.Int63n(sbRowsPerTable) + 1)
	}
	for i := 0; i < sbPointSelects; i++ {
		tbl, k := pick()
		if _, err := tx.Get(tbl, k); err != nil && !errors.Is(err, engine.ErrRowNotFound) {
			tx.Abort()
			return err
		}
	}
	for i := 0; i < sbIndexUpdates+sbNonIndexUpdates; i++ {
		tbl, k := pick()
		row, err := tx.GetForUpdate(tbl, k)
		if errors.Is(err, engine.ErrRowNotFound) {
			continue
		}
		if err != nil {
			tx.Abort()
			return err
		}
		upd := row.Clone()
		if i < sbIndexUpdates {
			upd[1] = engine.Int(c.Src.Int63n(sbRowsPerTable) + 1)
		} else {
			upd[2] = engine.Str(c.Src.Letters(32))
		}
		if err := tx.Update(tbl, k, upd); err != nil {
			tx.Abort()
			return err
		}
	}
	for i := 0; i < sbDeleteInserts; i++ {
		tbl, k := pick()
		row, err := tx.GetForUpdate(tbl, k)
		if errors.Is(err, engine.ErrRowNotFound) {
			continue
		}
		if err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Delete(tbl, k); err != nil {
			tx.Abort()
			return err
		}
		if err := tx.Insert(tbl, row.Clone()); err != nil {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}
