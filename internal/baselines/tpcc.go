package baselines

import (
	"errors"
	"fmt"
	"sort"

	"cloudybench/internal/core"
	"cloudybench/internal/engine"
	"cloudybench/internal/rng"
)

// TPCC is a TPC-C implementation over the engine: the nine-table schema
// and all five transactions (New-Order, Payment, Order-Status, Delivery,
// Stock-Level) at the standard 45/43/4/4/4 mix, without keying/think
// times. The scale factor is the warehouse count; the paper runs one
// warehouse through OLTP-Bench as the constant-load macrobenchmark of
// Figure 9. Every transaction runs on the RW node.
//
// Composite TPC-C keys map onto dense int64 key spaces so dimension tables
// ride the generator-backed loader; order tables are populated with real
// inserts (3000 initial orders per district, the last 900 undelivered).
var TPCC = &core.Suite{
	Name:   "tpcc",
	Tables: tpccCreateTables,
	Ops: func(sf int) []core.SuiteOp {
		t := newTPCC(sf)
		return []core.SuiteOp{
			{Name: "new-order", Weight: 45, Run: t.newOrder},
			{Name: "payment", Weight: 43, Run: t.payment},
			{Name: "order-status", Weight: 4, Run: t.orderStatus},
			{Name: "delivery", Weight: 4, Run: t.delivery},
			{Name: "stock-level", Weight: 4, Run: t.stockLevel},
		}
	},
}

// tpcc is the client-side state one runner's TPC-C terminals share.
type tpcc struct {
	warehouses int

	// Per-district order counters (workload-owned, like a terminal's
	// cached D_NEXT_O_ID; the authoritative copy lives in the district
	// row and is updated transactionally by New-Order).
	nextOID   []int64
	oldestNew []int64
}

// TPC-C cardinalities per the specification.
const (
	tpccDistrictsPerW = 10
	tpccCustomersPerD = 3000
	tpccItems         = 100_000
	tpccStockPerW     = 100_000
	tpccInitialOrders = 3000
	tpccUndelivered   = 900 // last 900 orders per district start undelivered
	tpccOrderKeySpan  = 10_000_000
)

func newTPCC(sf int) *tpcc {
	warehouses := max(sf, 1)
	nd := warehouses * tpccDistrictsPerW
	t := &tpcc{
		warehouses: warehouses,
		nextOID:    make([]int64, nd),
		oldestNew:  make([]int64, nd),
	}
	for i := range t.nextOID {
		t.nextOID[i] = tpccInitialOrders + 1
		t.oldestNew[i] = tpccInitialOrders - tpccUndelivered + 1
	}
	return t
}

// Key-space mapping helpers (1-based warehouse/district/customer ids).
func districtIdx(w, d int) int64 { return int64((w-1)*tpccDistrictsPerW + (d - 1)) }

func districtKeyID(w, d int) int64 { return districtIdx(w, d) + 1 }

func customerKeyID(w, d, c int) int64 {
	return districtIdx(w, d)*tpccCustomersPerD + int64(c)
}

func stockKeyID(w, i int) int64 { return int64(w-1)*tpccStockPerW + int64(i) }

func orderKeyID(w, d int, o int64) int64 {
	return districtIdx(w, d)*tpccOrderKeySpan + o
}

func orderLineKeyID(orderKey int64, ol int) int64 { return orderKey*16 + int64(ol) }

func schema(name string, keyCol int, cols ...engine.Column) *engine.Schema {
	avg := 0
	for _, c := range cols {
		switch c.Kind {
		case engine.KindString:
			avg += 24
		default:
			avg += 8
		}
	}
	return &engine.Schema{Name: name, Cols: cols, KeyCols: []int{keyCol}, AvgRowBytes: avg + 8}
}

func col(name string, k engine.Kind) engine.Column { return engine.Column{Name: name, Kind: k} }

// tpccCreateTables registers the nine tables and performs the initial load.
func tpccCreateTables(db *engine.DB, sf int, seed int64) error {
	W := max(sf, 1)
	mk := func(s *engine.Schema, rows int64, gen engine.RowGen) error {
		_, err := db.CreateTable(s, rows, gen)
		return err
	}

	// Each generator with a string column carves it from a slab of its own.
	var whNames, custNames, itemNames engine.StrSlab
	err := mk(schema("warehouse", 0,
		col("W_ID", engine.KindInt), col("W_NAME", engine.KindString),
		col("W_TAX", engine.KindFloat), col("W_YTD", engine.KindFloat)),
		int64(W), func(dst engine.Row, id int64) engine.Row {
			r := rng.QuickOf(seed, 0x7a1, id)
			r.FillLetters(whNames.Carve("wh-", 6))
			return append(dst[:0], engine.Int(id), whNames.Str(),
				engine.Float(r.Float64()*0.2), engine.Float(300_000))
		})
	if err != nil {
		return err
	}

	err = mk(schema("district", 0,
		col("D_KEY", engine.KindInt), col("D_W_ID", engine.KindInt),
		col("D_TAX", engine.KindFloat), col("D_YTD", engine.KindFloat),
		col("D_NEXT_O_ID", engine.KindInt)),
		int64(W*tpccDistrictsPerW), func(dst engine.Row, id int64) engine.Row {
			r := rng.QuickOf(seed, 0xd15, id)
			w := (id-1)/tpccDistrictsPerW + 1
			return append(dst[:0], engine.Int(id), engine.Int(w),
				engine.Float(r.Float64()*0.2), engine.Float(30_000),
				engine.Int(tpccInitialOrders+1))
		})
	if err != nil {
		return err
	}

	err = mk(schema("customer", 0,
		col("C_KEY", engine.KindInt), col("C_D_KEY", engine.KindInt),
		col("C_NAME", engine.KindString), col("C_BALANCE", engine.KindFloat),
		col("C_YTD_PAYMENT", engine.KindFloat), col("C_PAYMENT_CNT", engine.KindInt),
		col("C_DELIVERY_CNT", engine.KindInt)),
		int64(W*tpccDistrictsPerW*tpccCustomersPerD), func(dst engine.Row, id int64) engine.Row {
			r := rng.QuickOf(seed, 0xc57, id)
			dkey := (id-1)/tpccCustomersPerD + 1
			r.FillLetters(custNames.Carve("cust-", 10))
			return append(dst[:0], engine.Int(id), engine.Int(dkey),
				custNames.Str(), engine.Float(-10),
				engine.Float(10), engine.Int(1), engine.Int(0))
		})
	if err != nil {
		return err
	}

	err = mk(schema("item", 0,
		col("I_ID", engine.KindInt), col("I_NAME", engine.KindString),
		col("I_PRICE", engine.KindFloat)),
		tpccItems, func(dst engine.Row, id int64) engine.Row {
			r := rng.QuickOf(seed, 0x17e, id)
			r.FillLetters(itemNames.Carve("item-", 8))
			return append(dst[:0], engine.Int(id), itemNames.Str(),
				engine.Float(1+r.Float64()*99))
		})
	if err != nil {
		return err
	}

	err = mk(schema("stock", 0,
		col("S_KEY", engine.KindInt), col("S_QUANTITY", engine.KindInt),
		col("S_YTD", engine.KindInt), col("S_ORDER_CNT", engine.KindInt)),
		int64(W)*tpccStockPerW, func(dst engine.Row, id int64) engine.Row {
			r := rng.QuickOf(seed, 0x57c, id)
			return append(dst[:0], engine.Int(id), engine.Int(10+r.Int63n(91)),
				engine.Int(0), engine.Int(0))
		})
	if err != nil {
		return err
	}

	// Order-side tables hold sparse computed keys, so they load with real
	// inserts rather than a dense generator.
	if err := mk(schema("orders", 0,
		col("O_KEY", engine.KindInt), col("O_D_KEY", engine.KindInt),
		col("O_C_ID", engine.KindInt), col("O_CARRIER_ID", engine.KindInt),
		col("O_OL_CNT", engine.KindInt), col("O_ENTRY_D", engine.KindInt)),
		0, nil); err != nil {
		return err
	}
	if err := mk(schema("new_order", 0, col("NO_KEY", engine.KindInt)), 0, nil); err != nil {
		return err
	}
	if err := mk(schema("order_line", 0,
		col("OL_KEY", engine.KindInt), col("OL_O_KEY", engine.KindInt),
		col("OL_I_ID", engine.KindInt), col("OL_QUANTITY", engine.KindInt),
		col("OL_AMOUNT", engine.KindFloat), col("OL_DELIVERY_D", engine.KindInt)),
		0, nil); err != nil {
		return err
	}
	if err := mk(schema("history", 0,
		col("H_ID", engine.KindInt), col("H_C_KEY", engine.KindInt),
		col("H_AMOUNT", engine.KindFloat)), 0, nil); err != nil {
		return err
	}
	return tpccLoadOrders(db, W, seed)
}

// tpccLoadOrders populates the initial 3000 orders per district, ten lines
// each, with the last 900 undelivered.
func tpccLoadOrders(db *engine.DB, warehouses int, seed int64) error {
	orders := db.Table("orders")
	newOrder := db.Table("new_order")
	orderLine := db.Table("order_line")
	for w := 1; w <= warehouses; w++ {
		for d := 1; d <= tpccDistrictsPerW; d++ {
			r := rng.QuickOf(seed, 0x04d, districtIdx(w, d))
			for o := int64(1); o <= tpccInitialOrders; o++ {
				okey := orderKeyID(w, d, o)
				carrier := int64(1 + r.Int63n(10))
				if o > tpccInitialOrders-tpccUndelivered {
					carrier = 0 // undelivered
				}
				row := engine.Row{
					engine.Int(okey), engine.Int(districtKeyID(w, d)),
					engine.Int(customerKeyID(w, d, int(1+r.Int63n(tpccCustomersPerD)))),
					engine.Int(carrier), engine.Int(10), engine.Int(0),
				}
				if _, err := orders.Insert(engine.IntKey(okey), row); err != nil {
					return fmt.Errorf("tpcc load orders: %w", err)
				}
				if carrier == 0 {
					if _, err := newOrder.Insert(engine.IntKey(okey), engine.Row{engine.Int(okey)}); err != nil {
						return fmt.Errorf("tpcc load new_order: %w", err)
					}
				}
				for ol := 1; ol <= 10; ol++ {
					olkey := orderLineKeyID(okey, ol)
					lrow := engine.Row{
						engine.Int(olkey), engine.Int(okey),
						engine.Int(1 + r.Int63n(tpccItems)),
						engine.Int(1 + r.Int63n(9)),
						engine.Float(r.Float64() * 999),
						engine.Int(0),
					}
					if _, err := orderLine.Insert(engine.IntKey(olkey), lrow); err != nil {
						return fmt.Errorf("tpcc load order_line: %w", err)
					}
				}
			}
		}
	}
	return nil
}

func (t *tpcc) randWD(src *rng.Source) (int, int) {
	return src.Intn(t.warehouses) + 1, src.Intn(tpccDistrictsPerW) + 1
}

// newOrder places an order: read warehouse/district/customer, advance
// D_NEXT_O_ID, insert the order and its lines, and update stock for each
// (sorted) item.
func (t *tpcc) newOrder(c *core.OpCtx) error {
	w, d := t.randWD(c.Src)
	didx := districtIdx(w, d)
	cid := c.Src.Intn(tpccCustomersPerD) + 1
	nItems := 5 + c.Src.Intn(11)
	items := make([]int64, 0, nItems)
	seen := map[int64]bool{}
	for len(items) < nItems {
		i := c.Src.Int63n(tpccItems) + 1
		if !seen[i] {
			seen[i] = true
			items = append(items, i)
		}
	}
	// Lock stock rows in sorted order to stay deadlock-free across
	// concurrent New-Orders.
	sort.Slice(items, func(a, b int) bool { return items[a] < items[b] })

	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	warehouse := c.Node.DB.Table("warehouse")
	district := c.Node.DB.Table("district")
	customer := c.Node.DB.Table("customer")
	item := c.Node.DB.Table("item")
	stock := c.Node.DB.Table("stock")
	orders := c.Node.DB.Table("orders")
	newOrder := c.Node.DB.Table("new_order")
	orderLine := c.Node.DB.Table("order_line")

	if _, err := tx.Get(warehouse, engine.IntKey(int64(w))); err != nil {
		tx.Abort()
		return err
	}
	drow, err := tx.GetForUpdate(district, engine.IntKey(districtKeyID(w, d)))
	if err != nil {
		tx.Abort()
		return err
	}
	oid := drow[4].Int()
	dupd := c.KeepRow(drow)
	dupd[4] = engine.Int(oid + 1)
	if err := tx.Update(district, engine.IntKey(districtKeyID(w, d)), dupd); err != nil {
		tx.Abort()
		return err
	}
	if _, err := tx.Get(customer, engine.IntKey(customerKeyID(w, d, cid))); err != nil {
		tx.Abort()
		return err
	}

	okey := orderKeyID(w, d, oid)
	orow := engine.Row{
		engine.Int(okey), engine.Int(districtKeyID(w, d)),
		engine.Int(customerKeyID(w, d, cid)), engine.Int(0),
		engine.Int(int64(nItems)), engine.Int(c.P.Now().UnixMicro()),
	}
	if err := tx.Insert(orders, orow); err != nil {
		tx.Abort()
		return err
	}
	if err := tx.Insert(newOrder, engine.Row{engine.Int(okey)}); err != nil {
		tx.Abort()
		return err
	}
	for idx, iid := range items {
		irow, err := tx.Get(item, engine.IntKey(iid))
		if err != nil {
			tx.Abort()
			return err
		}
		skey := engine.IntKey(stockKeyID(w, int(iid)))
		srow, err := tx.GetForUpdate(stock, skey)
		if err != nil {
			tx.Abort()
			return err
		}
		qty := int64(1 + c.Src.Intn(9))
		supd := c.KeepRow(srow)
		newQty := srow[1].Int() - qty
		if newQty < 10 {
			newQty += 91
		}
		supd[1] = engine.Int(newQty)
		supd[2] = engine.Int(srow[2].Int() + qty)
		supd[3] = engine.Int(srow[3].Int() + 1)
		if err := tx.Update(stock, skey, supd); err != nil {
			tx.Abort()
			return err
		}
		olkey := orderLineKeyID(okey, idx+1)
		lrow := engine.Row{
			engine.Int(olkey), engine.Int(okey), engine.Int(iid),
			engine.Int(qty), engine.Float(float64(qty) * irow[2].Float()), engine.Int(0),
		}
		if err := tx.Insert(orderLine, lrow); err != nil {
			tx.Abort()
			return err
		}
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	if oid >= t.nextOID[didx] {
		t.nextOID[didx] = oid + 1
	}
	return nil
}

// payment records a customer payment against warehouse/district/customer
// YTD totals and appends a history row.
func (t *tpcc) payment(c *core.OpCtx) error {
	w, d := t.randWD(c.Src)
	cid := c.Src.Intn(tpccCustomersPerD) + 1
	amount := 1 + c.Src.Float64()*4999

	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	warehouse := c.Node.DB.Table("warehouse")
	district := c.Node.DB.Table("district")
	customer := c.Node.DB.Table("customer")
	history := c.Node.DB.Table("history")

	wrow, err := tx.GetForUpdate(warehouse, engine.IntKey(int64(w)))
	if err != nil {
		tx.Abort()
		return err
	}
	wupd := c.KeepRow(wrow)
	wupd[3] = engine.Float(wrow[3].Float() + amount)
	if err := tx.Update(warehouse, engine.IntKey(int64(w)), wupd); err != nil {
		tx.Abort()
		return err
	}
	dkey := engine.IntKey(districtKeyID(w, d))
	drow, err := tx.GetForUpdate(district, dkey)
	if err != nil {
		tx.Abort()
		return err
	}
	dupd := c.KeepRow(drow)
	dupd[3] = engine.Float(drow[3].Float() + amount)
	if err := tx.Update(district, dkey, dupd); err != nil {
		tx.Abort()
		return err
	}
	ckey := engine.IntKey(customerKeyID(w, d, cid))
	crow, err := tx.GetForUpdate(customer, ckey)
	if err != nil {
		tx.Abort()
		return err
	}
	cupd := c.KeepRow(crow)
	cupd[3] = engine.Float(crow[3].Float() - amount)
	cupd[4] = engine.Float(crow[4].Float() + amount)
	cupd[5] = engine.Int(crow[5].Int() + 1)
	if err := tx.Update(customer, ckey, cupd); err != nil {
		tx.Abort()
		return err
	}
	hrow := engine.Row{
		engine.Int(history.NextAutoID()),
		engine.Int(customerKeyID(w, d, cid)),
		engine.Float(amount),
	}
	if err := tx.Insert(history, hrow); err != nil {
		tx.Abort()
		return err
	}
	return tx.Commit()
}

// orderStatus reads a customer's most recent known order and its lines.
func (t *tpcc) orderStatus(c *core.OpCtx) error {
	w, d := t.randWD(c.Src)
	didx := districtIdx(w, d)
	maxO := t.nextOID[didx] - 1
	o := 1 + c.Src.Int63n(maxO)
	okey := orderKeyID(w, d, o)

	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	orders := c.Node.DB.Table("orders")
	customer := c.Node.DB.Table("customer")
	orderLine := c.Node.DB.Table("order_line")

	orow, err := tx.Get(orders, engine.IntKey(okey))
	if errors.Is(err, engine.ErrRowNotFound) {
		return tx.Commit() // order id raced ahead of replication of state
	}
	if err != nil {
		tx.Abort()
		return err
	}
	if _, err := tx.Get(customer, engine.IntKey(orow[2].Int())); err != nil {
		tx.Abort()
		return err
	}
	cnt := int(orow[4].Int())
	for ol := 1; ol <= cnt; ol++ {
		if _, err := tx.Get(orderLine, engine.IntKey(orderLineKeyID(okey, ol))); err != nil &&
			!errors.Is(err, engine.ErrRowNotFound) {
			tx.Abort()
			return err
		}
	}
	return tx.Commit()
}

// delivery delivers the oldest undelivered order in each district of one
// warehouse: consume new_order, stamp the carrier, mark lines delivered,
// and credit the customer.
func (t *tpcc) delivery(c *core.OpCtx) error {
	w := c.Src.Intn(t.warehouses) + 1
	carrier := int64(1 + c.Src.Intn(10))

	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	orders := c.Node.DB.Table("orders")
	newOrder := c.Node.DB.Table("new_order")
	orderLine := c.Node.DB.Table("order_line")
	customer := c.Node.DB.Table("customer")

	for d := 1; d <= tpccDistrictsPerW; d++ {
		didx := districtIdx(w, d)
		o := t.oldestNew[didx]
		if o >= t.nextOID[didx] {
			continue
		}
		okey := orderKeyID(w, d, o)
		if err := tx.Delete(newOrder, engine.IntKey(okey)); err != nil {
			if errors.Is(err, engine.ErrRowNotFound) {
				t.oldestNew[didx]++
				continue
			}
			tx.Abort()
			return err
		}
		orow, err := tx.GetForUpdate(orders, engine.IntKey(okey))
		if err != nil {
			tx.Abort()
			return err
		}
		oupd := c.KeepRow(orow)
		oupd[3] = engine.Int(carrier)
		if err := tx.Update(orders, engine.IntKey(okey), oupd); err != nil {
			tx.Abort()
			return err
		}
		var total float64
		cnt := int(orow[4].Int())
		now := c.P.Now().UnixMicro()
		for ol := 1; ol <= cnt; ol++ {
			olk := engine.IntKey(orderLineKeyID(okey, ol))
			lrow, err := tx.Get(orderLine, olk)
			if errors.Is(err, engine.ErrRowNotFound) {
				continue
			}
			if err != nil {
				tx.Abort()
				return err
			}
			total += lrow[4].Float()
			lupd := c.KeepRow(lrow)
			lupd[5] = engine.Int(now)
			if err := tx.Update(orderLine, olk, lupd); err != nil {
				tx.Abort()
				return err
			}
		}
		ckey := engine.IntKey(orow[2].Int())
		crow, err := tx.GetForUpdate(customer, ckey)
		if err != nil {
			tx.Abort()
			return err
		}
		cupd := c.KeepRow(crow)
		cupd[3] = engine.Float(crow[3].Float() + total)
		cupd[6] = engine.Int(crow[6].Int() + 1)
		if err := tx.Update(customer, ckey, cupd); err != nil {
			tx.Abort()
			return err
		}
		t.oldestNew[didx]++
	}
	return tx.Commit()
}

// stockLevel counts recently-sold items below a stock threshold in one
// district — the classic read-heavy TPC-C transaction.
func (t *tpcc) stockLevel(c *core.OpCtx) error {
	w, d := t.randWD(c.Src)
	didx := districtIdx(w, d)
	threshold := int64(10 + c.Src.Intn(11))

	tx, err := c.Node.Begin(c.P)
	if err != nil {
		return err
	}
	orderLine := c.Node.DB.Table("order_line")
	stock := c.Node.DB.Table("stock")

	hi := t.nextOID[didx] - 1
	lo := hi - 19
	if lo < 1 {
		lo = 1
	}
	seen := map[int64]bool{}
	below := 0
	for o := lo; o <= hi; o++ {
		okey := orderKeyID(w, d, o)
		for ol := 1; ol <= 10; ol++ {
			lrow, err := tx.Get(orderLine, engine.IntKey(orderLineKeyID(okey, ol)))
			if errors.Is(err, engine.ErrRowNotFound) {
				break
			}
			if err != nil {
				tx.Abort()
				return err
			}
			iid := lrow[2].Int()
			if seen[iid] {
				continue
			}
			seen[iid] = true
			srow, err := tx.Get(stock, engine.IntKey(stockKeyID(w, int(iid))))
			if err != nil {
				tx.Abort()
				return err
			}
			if srow[1].Int() < threshold {
				below++
			}
		}
	}
	return tx.Commit()
}
