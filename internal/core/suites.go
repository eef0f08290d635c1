package core

import (
	"errors"

	"cloudybench/internal/engine"
)

// The three shipped suites. Each exercises secondary indexes differently:
// idx-range sweeps read selectivity, timeseries deletes through an index
// scan inside write transactions, lob stresses big-row I/O with an indexed
// listing.
const (
	SuiteIdxRange   = "idx-range"
	SuiteTimeseries = "timeseries"
	SuiteLob        = "lob"
)

// Suite table names.
const (
	TableIdxItems  = "idx_items"
	TableTsEvents  = "ts_events"
	TableLobObject = "lob_objects"
)

const (
	idxGroups = 100 // idx_items group domain: II_GROUP in [0, 99]
	tsPerBkt  = 50  // ts_events rows per time bucket
	lobBkts   = 16  // lob_objects bucket domain
)

// rangeWidths is the selectivity ladder the idx-range readers sweep:
// 1% point lookups up to 50% of the group domain, crossing the planner's
// index-vs-scan threshold in the middle.
var rangeWidths = []int64{1, 2, 5, 10, 25, 50}

func init() {
	// Indexed range scans with a selectivity sweep over a grouped table.
	RegisterSuite(&Suite{
		Name: SuiteIdxRange,
		Tables: func(db *engine.DB, sf int, seed int64) error {
			schema := &engine.Schema{
				Name: TableIdxItems,
				Cols: []engine.Column{
					{Name: "II_ID", Kind: engine.KindInt},
					{Name: "II_GROUP", Kind: engine.KindInt},
					{Name: "II_SCORE", Kind: engine.KindFloat},
					{Name: "II_TAG", Kind: engine.KindString},
				},
				KeyCols:     []int{0},
				AvgRowBytes: 96,
			}
			_, err := db.CreateTable(schema, int64(sf)*2000, func(dst engine.Row, id int64) engine.Row {
				return append(dst[:0],
					engine.Int(id),
					engine.Int(id%idxGroups),
					engine.Float(float64(id%997)/4),
					engine.Str("tag-base"),
				)
			})
			if err != nil {
				return err
			}
			_, err = db.CreateIndex(TableIdxItems, "ix_idx_items_group", "II_GROUP")
			return err
		},
		Ops: func(sf int) []SuiteOp {
			return []SuiteOp{
				{Name: "range-read", Weight: 70, ReadOnly: true, Run: opIdxRangeRead},
				{Name: "insert", Weight: 15, Run: opIdxInsert},
				{Name: "update", Weight: 10, Run: opIdxUpdate},
				{Name: "delete", Weight: 5, Run: opIdxDelete},
			}
		},
	})

	// Append-heavy time-series with retention deletes through the bucket
	// index.
	RegisterSuite(&Suite{
		Name: SuiteTimeseries,
		Tables: func(db *engine.DB, sf int, seed int64) error {
			schema := &engine.Schema{
				Name: TableTsEvents,
				Cols: []engine.Column{
					{Name: "TS_ID", Kind: engine.KindInt},
					{Name: "TS_BUCKET", Kind: engine.KindInt},
					{Name: "TS_VAL", Kind: engine.KindFloat},
					{Name: "TS_SRC", Kind: engine.KindString},
				},
				KeyCols:     []int{0},
				AvgRowBytes: 72,
			}
			_, err := db.CreateTable(schema, int64(sf)*2000, func(dst engine.Row, id int64) engine.Row {
				return append(dst[:0],
					engine.Int(id),
					engine.Int(id/tsPerBkt),
					engine.Float(float64(id%101)/2),
					engine.Str("src-base"),
				)
			})
			if err != nil {
				return err
			}
			_, err = db.CreateIndex(TableTsEvents, "ix_ts_events_bucket", "TS_BUCKET")
			return err
		},
		Ops: func(sf int) []SuiteOp {
			return []SuiteOp{
				{Name: "append", Weight: 60, Run: opTsAppend},
				{Name: "recent-read", Weight: 25, ReadOnly: true, Run: opTsRecentRead},
				{Name: "retention", Weight: 15, Run: opTsRetention},
			}
		},
	})

	// Large-object read/write with an indexed bucket listing.
	RegisterSuite(&Suite{
		Name: SuiteLob,
		Tables: func(db *engine.DB, sf int, seed int64) error {
			schema := &engine.Schema{
				Name: TableLobObject,
				Cols: []engine.Column{
					{Name: "LO_ID", Kind: engine.KindInt},
					{Name: "LO_BUCKET", Kind: engine.KindInt},
					{Name: "LO_DATA", Kind: engine.KindString},
				},
				KeyCols:     []int{0},
				AvgRowBytes: 16 * 1024,
			}
			_, err := db.CreateTable(schema, int64(sf)*200, func(dst engine.Row, id int64) engine.Row {
				return append(dst[:0],
					engine.Int(id),
					engine.Int(id%lobBkts),
					engine.Str("blob-base"),
				)
			})
			if err != nil {
				return err
			}
			_, err = db.CreateIndex(TableLobObject, "ix_lob_objects_bucket", "LO_BUCKET")
			return err
		},
		Ops: func(sf int) []SuiteOp {
			return []SuiteOp{
				{Name: "get", Weight: 60, ReadOnly: true, Run: opLobGet},
				{Name: "put", Weight: 25, Run: opLobPut},
				{Name: "list", Weight: 15, ReadOnly: true, Run: opLobList},
			}
		},
	})
}

// opIdxRangeRead sweeps the selectivity ladder: a random width from 1 to 50
// groups, so the same op stream exercises both sides of the planner's
// index-vs-scan threshold.
func opIdxRangeRead(c *OpCtx) error {
	width := rangeWidths[c.Src.PickWeighted([]float64{30, 20, 20, 15, 10, 5})]
	lo := c.Dist.Next(idxGroups) - 1
	hi := lo + width - 1
	_, err := c.ScanRead(TableIdxItems, 1, engine.Int(lo), engine.Int(hi), 0)
	return err
}

func opIdxInsert(c *OpCtx) error {
	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	tbl := c.Node.DB.Table(TableIdxItems)
	id := tbl.NextAutoID()
	row := append(c.carveRow(4),
		engine.Int(id),
		engine.Int(c.Src.IntRange(0, idxGroups-1)),
		engine.Float(float64(c.Src.IntRange(0, 999))/4),
		c.Filler("tag-", 4),
	)
	if err := tx.Insert(tbl, row); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// opIdxUpdate moves a row to a new group, forcing a delete+put pair on the
// secondary index.
func opIdxUpdate(c *OpCtx) error {
	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	tbl := c.Node.DB.Table(TableIdxItems)
	id := c.Dist.Next(tbl.MaxID())
	row := append(c.carveRow(4),
		engine.Int(id),
		engine.Int(c.Src.IntRange(0, idxGroups-1)),
		engine.Float(float64(c.Src.IntRange(0, 999))/4),
		engine.Str("tag-upd"),
	)
	if err := tx.Update(tbl, c.IntKey(id), row); err != nil && !errors.Is(err, engine.ErrRowNotFound) {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func opIdxDelete(c *OpCtx) error {
	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	tbl := c.Node.DB.Table(TableIdxItems)
	id := c.Dist.Next(tbl.MaxID())
	if err := tx.Delete(tbl, c.IntKey(id)); err != nil && !errors.Is(err, engine.ErrRowNotFound) {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func opTsAppend(c *OpCtx) error {
	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	tbl := c.Node.DB.Table(TableTsEvents)
	id := tbl.NextAutoID()
	row := append(c.carveRow(4),
		engine.Int(id),
		engine.Int(id/tsPerBkt),
		engine.Float(float64(c.Src.IntRange(0, 200))/2),
		c.Filler("src-", 3),
	)
	if err := tx.Insert(tbl, row); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// opTsRecentRead scans the newest few time buckets through the index —
// the canonical time-series dashboard query.
func opTsRecentRead(c *OpCtx) error {
	tbl := c.Node.DB.Table(TableTsEvents)
	maxBkt := tbl.MaxID() / tsPerBkt
	lo := maxBkt - c.Src.IntRange(0, 3)
	if lo < 0 {
		lo = 0
	}
	_, err := c.ScanRead(TableTsEvents, 1, engine.Int(lo), engine.Int(maxBkt), 200)
	return err
}

// opTsRetention deletes a batch of rows older than the retention horizon,
// found through an index scan inside the write transaction — index reads
// and index maintenance in the same commit.
func opTsRetention(c *OpCtx) error {
	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	tbl := c.Node.DB.Table(TableTsEvents)
	cutoff := tbl.MaxID()/tsPerBkt - 30
	if cutoff < 0 {
		return tx.Commit() // nothing old enough yet
	}
	rows, err := tx.ScanRange(tbl, 1, engine.Int(0), engine.Int(cutoff), 8)
	if err != nil {
		tx.Abort()
		return err
	}
	for _, row := range rows {
		if err := tx.Delete(tbl, c.IntKey(row[0].Int())); err != nil && !errors.Is(err, engine.ErrRowNotFound) {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

func opLobGet(c *OpCtx) error {
	tbl := c.Node.DB.Table(TableLobObject)
	id := c.Dist.Next(tbl.MaxID())
	_, _, err := c.Node.ReadInto(c.P, TableLobObject, c.IntKey(id), c.row)
	if errors.Is(err, engine.ErrRowNotFound) {
		return nil
	}
	return err
}

// opLobPut writes a large object: half the time a fresh insert, half an
// overwrite of an existing id (both pay the 16 KiB row cost).
func opLobPut(c *OpCtx) error {
	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	tbl := c.Node.DB.Table(TableLobObject)
	payload := c.Filler("blob-", 24)
	if c.Src.IntRange(0, 1) == 0 {
		id := tbl.NextAutoID()
		row := append(c.carveRow(3), engine.Int(id), engine.Int(c.Src.IntRange(0, lobBkts-1)), payload)
		if err := tx.Insert(tbl, row); err != nil {
			tx.Abort()
			return err
		}
		return tx.Commit()
	}
	id := c.Dist.Next(tbl.MaxID())
	row := append(c.carveRow(3), engine.Int(id), engine.Int(c.Src.IntRange(0, lobBkts-1)), payload)
	if err := tx.Update(tbl, c.IntKey(id), row); err != nil && !errors.Is(err, engine.ErrRowNotFound) {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

func opLobList(c *OpCtx) error {
	b := engine.Int(c.Src.IntRange(0, lobBkts-1))
	_, err := c.ScanRead(TableLobObject, 1, b, b, 20)
	return err
}
