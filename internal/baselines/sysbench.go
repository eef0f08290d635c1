package baselines

import (
	"errors"
	"fmt"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/rng"
	"cloudybench/internal/sim"
)

// SysBench models the sysbench oltp_read_write workload the paper compares
// against (§III-I): independent point reads and writes over sbtest tables
// with no cross-operation transaction logic. The paper's configuration —
// three tables of 300,000 rows (~226 MB) — is the default.
type SysBench struct {
	Tables    int
	RowsPerTB int64
	// Mix per "transaction event", following sysbench defaults scaled
	// down: point selects dominate, plus indexed/non-indexed updates and
	// a delete+insert pair.
	PointSelects   int
	IndexUpdates   int
	NonIndexUpdate int
	DeleteInserts  int
}

// NewSysBench returns the paper's configuration.
func NewSysBench() *SysBench {
	return &SysBench{
		Tables: 3, RowsPerTB: 300_000,
		PointSelects: 10, IndexUpdates: 1, NonIndexUpdate: 1, DeleteInserts: 1,
	}
}

const sbRowBytes = 200 // id + k + c(120) + pad(60)

func sbSchema(i int) *engine.Schema {
	return &engine.Schema{
		Name: fmt.Sprintf("sbtest%d", i+1),
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

// CreateTables registers the sbtest tables with generator-backed rows.
func (sb *SysBench) CreateTables(db *engine.DB, seed int64) error {
	for i := 0; i < sb.Tables; i++ {
		tag := uint64(0x5B7E57 + i)
		gen := func(dst engine.Row, id int64) engine.Row {
			r := rng.QuickOf(seed, tag, id)
			return append(dst[:0],
				engine.Int(id),
				engine.Int(r.Int63n(sb.RowsPerTB)+1),
				engine.Str(r.Letters(32)),
				engine.Str(r.Letters(16)),
			)
		}
		if _, err := db.CreateTable(sbSchema(i), sb.RowsPerTB, gen); err != nil {
			return err
		}
	}
	return nil
}

// RawBytes estimates the dataset size (the paper cites 226 MB).
func (sb *SysBench) RawBytes() int64 {
	return int64(sb.Tables) * sb.RowsPerTB * sbRowBytes
}

// Txn executes one oltp_read_write event against the node.
func (sb *SysBench) Txn(p *sim.Proc, n *node.Node, src *rng.Source) error {
	tx, err := n.Begin(p)
	if err != nil {
		return err
	}
	pick := func() (*engine.Table, engine.Key) {
		tbl := n.DB.Table(fmt.Sprintf("sbtest%d", src.Intn(sb.Tables)+1))
		id := src.Int63n(sb.RowsPerTB) + 1
		return tbl, engine.IntKey(id)
	}
	for i := 0; i < sb.PointSelects; i++ {
		tbl, k := pick()
		if _, err := tx.Get(tbl, k); err != nil && !errors.Is(err, engine.ErrRowNotFound) {
			tx.Abort()
			return err
		}
	}
	for i := 0; i < sb.IndexUpdates+sb.NonIndexUpdate; i++ {
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
		if i < sb.IndexUpdates {
			upd[1] = engine.Int(src.Int63n(sb.RowsPerTB) + 1)
		} else {
			upd[2] = engine.Str(src.Letters(32))
		}
		if err := tx.Update(tbl, k, upd); err != nil {
			tx.Abort()
			return err
		}
	}
	for i := 0; i < sb.DeleteInserts; i++ {
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
