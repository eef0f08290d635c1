package core

import (
	"errors"

	"cloudybench/internal/engine"
	"cloudybench/internal/node"
	"cloudybench/internal/rng"
	"cloudybench/internal/sim"
)

// The paper's SaaS scenario (Figure 2) contains three microservices —
// Sales, Manufacturing, and Inventory — but evaluates only Sales, deferring
// the other two ("we will add the microservices of Manufacturing and
// Inventory in the future"). This file implements those two as an
// extension behind the same generator API so tenant schemas can grow
// without touching the evaluators. DESIGN.md documents this as an
// extension, not a paper claim.

// Extension table names.
const (
	TableProduct   = "product"
	TableWorkorder = "workorder"
	TableStockitem = "stockitem"
)

// Extension scaling: one product per ten orders; one workorder per product;
// stock items track products one-to-one.
const (
	ProductsPerSF   = 30_000
	WorkordersPerSF = 30_000
	StockitemsPerSF = 30_000
)

// Work-order status values.
const (
	WorkorderOpen = "OPEN"
	WorkorderDone = "DONE"
)

// ProductSchema returns the manufacturing PRODUCT table schema.
func ProductSchema() *engine.Schema {
	return &engine.Schema{
		Name: TableProduct,
		Cols: []engine.Column{
			{Name: "P_ID", Kind: engine.KindInt},
			{Name: "P_NAME", Kind: engine.KindString},
			{Name: "P_COST", Kind: engine.KindFloat},
			{Name: "P_UPDATEDDATE", Kind: engine.KindInt},
		},
		KeyCols:     []int{0},
		AvgRowBytes: 96,
	}
}

// WorkorderSchema returns the manufacturing WORKORDER table schema.
func WorkorderSchema() *engine.Schema {
	return &engine.Schema{
		Name: TableWorkorder,
		Cols: []engine.Column{
			{Name: "WO_ID", Kind: engine.KindInt},
			{Name: "WO_P_ID", Kind: engine.KindInt},
			{Name: "WO_QTY", Kind: engine.KindInt},
			{Name: "WO_STATUS", Kind: engine.KindString},
			{Name: "WO_UPDATEDDATE", Kind: engine.KindInt},
		},
		KeyCols:     []int{0},
		AvgRowBytes: 72,
	}
}

// StockitemSchema returns the inventory STOCKITEM table schema.
func StockitemSchema() *engine.Schema {
	return &engine.Schema{
		Name: TableStockitem,
		Cols: []engine.Column{
			{Name: "SI_ID", Kind: engine.KindInt},
			{Name: "SI_P_ID", Kind: engine.KindInt},
			{Name: "SI_QTY", Kind: engine.KindInt},
			{Name: "SI_RESERVED", Kind: engine.KindInt},
			{Name: "SI_UPDATEDDATE", Kind: engine.KindInt},
		},
		KeyCols:     []int{0},
		AvgRowBytes: 56,
	}
}

// Extension stream tags.
const (
	tagProduct   = 0x9807
	tagWorkorder = 0x3082
	tagStockitem = 0x570C
)

// CreateExtensionTables registers the Manufacturing and Inventory tables on
// a database that already has (or will have) the sales service.
func (d Dataset) CreateExtensionTables(db *engine.DB) error {
	seed := d.Seed
	products := int64(d.SF) * ProductsPerSF
	if _, err := db.CreateTable(ProductSchema(), products, func(dst engine.Row, id int64) engine.Row {
		r := rng.QuickOf(seed, tagProduct, id)
		return append(dst[:0],
			engine.Int(id),
			engine.Str("prod-"+r.Letters(8)),
			engine.Float(float64(r.IntRange(100, 50_000))/100),
			engine.Int(baseDate),
		)
	}); err != nil {
		return err
	}
	if _, err := db.CreateTable(WorkorderSchema(), int64(d.SF)*WorkordersPerSF, func(dst engine.Row, id int64) engine.Row {
		r := rng.QuickOf(seed, tagWorkorder, id)
		status := WorkorderDone
		if r.Float64() < 0.2 {
			status = WorkorderOpen
		}
		return append(dst[:0],
			engine.Int(id),
			engine.Int(1+r.Int63n(products)),
			engine.Int(r.IntRange(1, 500)),
			engine.Str(status),
			engine.Int(baseDate),
		)
	}); err != nil {
		return err
	}
	if _, err := db.CreateTable(StockitemSchema(), int64(d.SF)*StockitemsPerSF, func(dst engine.Row, id int64) engine.Row {
		r := rng.QuickOf(seed, tagStockitem, id)
		return append(dst[:0],
			engine.Int(id),
			engine.Int(id), // stock item i tracks product i
			engine.Int(r.IntRange(0, 10_000)),
			engine.Int(0),
			engine.Int(baseDate),
		)
	}); err != nil {
		return err
	}
	return nil
}

// ErrInsufficientStock is returned by ReserveStock when the reservation
// exceeds the available quantity.
var ErrInsufficientStock = errors.New("core: insufficient stock")

// M1CompleteWorkorder is the manufacturing transaction: close an open work
// order and add its quantity to the product's stock item (cross-service
// write, Manufacturing -> Inventory).
func M1CompleteWorkorder(p *sim.Proc, n *node.Node, woID int64, nowMicros int64) error {
	tx, err := n.Begin(p)
	if err != nil {
		return err
	}
	workorders := n.DB.Table(TableWorkorder)
	stock := n.DB.Table(TableStockitem)
	wo, err := tx.GetForUpdate(workorders, engine.IntKey(woID))
	if err != nil {
		tx.Abort()
		return err
	}
	if wo[3].S != WorkorderOpen {
		return tx.Commit() // already done: idempotent no-op
	}
	upd := wo.Clone()
	upd[3] = engine.Str(WorkorderDone)
	upd[4] = engine.Int(nowMicros)
	if err := tx.Update(workorders, engine.IntKey(woID), upd); err != nil {
		tx.Abort()
		return err
	}
	siKey := engine.IntKey(wo[1].I)
	si, err := tx.GetForUpdate(stock, siKey)
	if err != nil {
		tx.Abort()
		return err
	}
	sup := si.Clone()
	sup[2] = engine.Int(si[2].I + wo[2].I)
	sup[4] = engine.Int(nowMicros)
	if err := tx.Update(stock, siKey, sup); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// I1ReserveStock is the inventory transaction: reserve qty units of a
// product for a pending sale, failing atomically when stock is short
// (Inventory <- Sales dependency).
func I1ReserveStock(p *sim.Proc, n *node.Node, productID, qty int64, nowMicros int64) error {
	tx, err := n.Begin(p)
	if err != nil {
		return err
	}
	stock := n.DB.Table(TableStockitem)
	key := engine.IntKey(productID)
	si, err := tx.GetForUpdate(stock, key)
	if err != nil {
		tx.Abort()
		return err
	}
	available := si[2].I - si[3].I
	if available < qty {
		tx.Abort()
		return ErrInsufficientStock
	}
	upd := si.Clone()
	upd[3] = engine.Int(si[3].I + qty)
	upd[4] = engine.Int(nowMicros)
	if err := tx.Update(stock, key, upd); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}
