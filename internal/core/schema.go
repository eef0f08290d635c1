// Package core implements the CloudyBench benchmark itself: the sales
// microservice schema and data generator (paper §II-A), the T1–T4 OLTP
// transactions of Table II, the uniform/latest access distributions, the
// workload manager with runtime-variable concurrency (the mechanism under
// every elasticity and multi-tenancy pattern), and the performance
// collector.
//
// The scaling model follows the paper: CUSTOMER and ORDERS both hold
// 300,000 rows per scale factor, and ORDERLINE is an order of magnitude
// larger. Base rows are materialized deterministically by id, so SF100's
// ~20 GB exists virtually and only written rows consume memory.
package core

import (
	"time"

	"cloudybench/internal/engine"
	"cloudybench/internal/rng"
)

// Table names.
const (
	TableCustomer  = "customer"
	TableOrders    = "orders"
	TableOrderline = "orderline"
)

// Rows-per-scale-factor constants (paper §II-A).
const (
	CustomersPerSF  = 300_000
	OrdersPerSF     = 300_000
	OrderlinesPerSF = 3_000_000 // "an order of magnitude larger"
)

// Physical row-size estimates chosen so SF1 lands near the paper's 194 MB
// raw size: 300k*120 + 300k*100 + 3M*48 ≈ 210 MB.
const (
	customerRowBytes  = 120
	ordersRowBytes    = 100
	orderlineRowBytes = 48
)

// Order status values.
const (
	StatusNew  = "NEW"
	StatusPaid = "PAID"
)

// CustomerSchema returns the CUSTOMER table schema.
func CustomerSchema() *engine.Schema {
	return &engine.Schema{
		Name: TableCustomer,
		Cols: []engine.Column{
			{Name: "C_ID", Kind: engine.KindInt},
			{Name: "C_NAME", Kind: engine.KindString},
			{Name: "C_CREDIT", Kind: engine.KindFloat},
			{Name: "C_UPDATEDDATE", Kind: engine.KindInt},
		},
		KeyCols:     []int{0},
		AvgRowBytes: customerRowBytes,
	}
}

// OrdersSchema returns the ORDERS table schema.
func OrdersSchema() *engine.Schema {
	return &engine.Schema{
		Name: TableOrders,
		Cols: []engine.Column{
			{Name: "O_ID", Kind: engine.KindInt},
			{Name: "O_C_ID", Kind: engine.KindInt},
			{Name: "O_TOTALAMOUNT", Kind: engine.KindFloat},
			{Name: "O_DATE", Kind: engine.KindInt},
			{Name: "O_STATUS", Kind: engine.KindString},
			{Name: "O_UPDATEDDATE", Kind: engine.KindInt},
		},
		KeyCols:     []int{0},
		AvgRowBytes: ordersRowBytes,
	}
}

// OrderlineSchema returns the ORDERLINE table schema.
func OrderlineSchema() *engine.Schema {
	return &engine.Schema{
		Name: TableOrderline,
		Cols: []engine.Column{
			{Name: "OL_ID", Kind: engine.KindInt},
			{Name: "OL_O_ID", Kind: engine.KindInt},
			{Name: "OL_PRODUCT", Kind: engine.KindString},
			{Name: "OL_QUANTITY", Kind: engine.KindInt},
			{Name: "OL_AMOUNT", Kind: engine.KindFloat},
		},
		KeyCols:     []int{0},
		AvgRowBytes: orderlineRowBytes,
	}
}

// Dataset describes one generated database at a scale factor.
type Dataset struct {
	SF         int
	Seed       int64
	Customers  int64
	Orders     int64
	Orderlines int64
}

// NewDataset returns the dataset description for a scale factor.
func NewDataset(sf int, seed int64) Dataset {
	if sf < 1 {
		sf = 1
	}
	return Dataset{
		SF:         sf,
		Seed:       seed,
		Customers:  int64(sf) * CustomersPerSF,
		Orders:     int64(sf) * OrdersPerSF,
		Orderlines: int64(sf) * OrderlinesPerSF,
	}
}

// RawBytes estimates the raw data size (the paper reports 194 MB, 1.99 GB,
// and 20.8 GB for SF1/10/100).
func (d Dataset) RawBytes() int64 {
	return d.Customers*customerRowBytes + d.Orders*ordersRowBytes + d.Orderlines*orderlineRowBytes
}

// baseDate is the synthetic load timestamp embedded in generated rows.
var baseDate = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixMicro()

// Per-table stream tags for the Quick derivation.
const (
	tagCustomer  = 0xC057
	tagOrders    = 0x04DE
	tagOrderline = 0x01AE
)

// CustomerGen materializes CUSTOMER base rows by id. Its C_NAME strings are
// carved from a slab the generator owns.
type CustomerGen struct {
	seed  int64
	names engine.StrSlab
}

// CustomerGen returns a fresh CUSTOMER row generator. CreateTables builds
// one per DB, so only that DB's simulation touches its slab.
func (d Dataset) CustomerGen() *CustomerGen { return &CustomerGen{seed: d.Seed} }

// Row materializes customer id into dst; it is the table's engine.RowGen.
//
//detlint:hotpath
func (g *CustomerGen) Row(dst engine.Row, id int64) engine.Row {
	r := rng.QuickOf(g.seed, tagCustomer, id)
	r.FillLetters(g.names.Carve("cust-", 8))
	return append(dst[:0],
		engine.Int(id),
		g.names.Str(),
		engine.Float(float64(r.IntRange(0, 50_000))),
		engine.Int(baseDate),
	)
}

// OrdersGen returns the deterministic ORDERS row generator. Customer
// references are spread uniformly; ~70% of historical orders are PAID.
func (d Dataset) OrdersGen() engine.RowGen {
	seed := d.Seed
	customers := d.Customers
	return func(dst engine.Row, id int64) engine.Row {
		r := rng.QuickOf(seed, tagOrders, id)
		status := StatusPaid
		if r.Float64() < 0.3 {
			status = StatusNew
		}
		return append(dst[:0],
			engine.Int(id),
			engine.Int(1+r.Int63n(customers)),
			engine.Float(float64(r.IntRange(1, 10_000))/100),
			engine.Int(baseDate-r.Int63n(86_400_000_000*365)),
			engine.Str(status),
			engine.Int(baseDate),
		)
	}
}

// OrderlineGen materializes ORDERLINE base rows by id; each base order owns
// ten consecutive orderlines. Its OL_PRODUCT strings are carved from a slab
// the generator owns.
type OrderlineGen struct {
	seed   int64
	orders int64
	skus   engine.StrSlab
}

// OrderlineGen returns a fresh ORDERLINE row generator, one per DB like
// CustomerGen.
func (d Dataset) OrderlineGen() *OrderlineGen {
	return &OrderlineGen{seed: d.Seed, orders: d.Orders}
}

// Row materializes orderline id into dst; it is the table's engine.RowGen.
//
//detlint:hotpath
func (g *OrderlineGen) Row(dst engine.Row, id int64) engine.Row {
	r := rng.QuickOf(g.seed, tagOrderline, id)
	orderID := (id-1)/10 + 1
	if orderID > g.orders {
		orderID = g.orders
	}
	r.FillLetters(g.skus.Carve("sku-", 6))
	return append(dst[:0],
		engine.Int(id),
		engine.Int(orderID),
		g.skus.Str(),
		engine.Int(r.IntRange(1, 9)),
		engine.Float(float64(r.IntRange(100, 99_99))/100),
	)
}

// CreateTables registers the three sales-service tables on a database, each
// with a generator of its own.
func (d Dataset) CreateTables(db *engine.DB) error {
	if _, err := db.CreateTable(CustomerSchema(), d.Customers, d.CustomerGen().Row); err != nil {
		return err
	}
	if _, err := db.CreateTable(OrdersSchema(), d.Orders, d.OrdersGen()); err != nil {
		return err
	}
	if _, err := db.CreateTable(OrderlineSchema(), d.Orderlines, d.OrderlineGen().Row); err != nil {
		return err
	}
	return nil
}
