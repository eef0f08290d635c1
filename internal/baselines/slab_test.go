package baselines

import (
	"testing"

	"cloudybench/internal/engine"
	"cloudybench/internal/rng"
	"cloudybench/internal/sim"
)

// The allocating spellings the slab-carved generators replaced, kept as the
// byte-identity oracle.

func refLetters(q *rng.Quick, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + q.Next()%26)
	}
	return string(b)
}

func refSbRow(seed int64, table int, id int64) engine.Row {
	r := rng.QuickOf(seed, uint64(0x5B7E57+table), id)
	return engine.Row{
		engine.Int(id),
		engine.Int(r.Int63n(sbRowsPerTable) + 1),
		engine.Str(refLetters(&r, 32)),
		engine.Str(refLetters(&r, 16)),
	}
}

func refWarehouseRow(seed, id int64) engine.Row {
	r := rng.QuickOf(seed, 0x7a1, id)
	return engine.Row{engine.Int(id), engine.Str("wh-" + refLetters(&r, 6)),
		engine.Float(r.Float64() * 0.2), engine.Float(300_000)}
}

func refCustomerRow(seed, id int64) engine.Row {
	r := rng.QuickOf(seed, 0xc57, id)
	dkey := (id-1)/tpccCustomersPerD + 1
	return engine.Row{engine.Int(id), engine.Int(dkey),
		engine.Str("cust-" + refLetters(&r, 10)), engine.Float(-10),
		engine.Float(10), engine.Int(1), engine.Int(0)}
}

func refItemRow(seed, id int64) engine.Row {
	r := rng.QuickOf(seed, 0x17e, id)
	return engine.Row{engine.Int(id), engine.Str("item-" + refLetters(&r, 8)),
		engine.Float(1 + r.Float64()*99)}
}

// TestGeneratorsMatchAllocatingSpelling reads base rows of every string-
// bearing SysBench and TPC-C table through the engine, over enough ids to
// cross several slab chunks, and compares them with the old spelling.
func TestGeneratorsMatchAllocatingSpelling(t *testing.T) {
	const seed = 42
	s := sim.New(epoch)
	sb, tp := engine.NewDB(s), engine.NewDB(s)
	if err := SysBench.Tables(sb, 1, seed); err != nil {
		t.Fatal(err)
	}
	if err := TPCC.Tables(tp, 1, seed); err != nil {
		t.Fatal(err)
	}
	check := func(db *engine.DB, table string, ids int64, ref func(id int64) engine.Row) {
		t.Helper()
		for id := int64(1); id <= ids; id++ {
			got, _, ok := db.ReadInto(table, engine.IntKey(id), nil)
			if want := ref(id); !ok || !got.Equal(want) {
				t.Fatalf("%s %d: %v (found %v), want %v", table, id, got, ok, want)
			}
		}
	}
	for i, name := range sbTableNames {
		check(sb, name, 1000, func(id int64) engine.Row { return refSbRow(seed, i, id) })
	}
	check(tp, "warehouse", 1, func(id int64) engine.Row { return refWarehouseRow(seed, id) })
	check(tp, "customer", 2000, func(id int64) engine.Row { return refCustomerRow(seed, id) })
	check(tp, "item", 2000, func(id int64) engine.Row { return refItemRow(seed, id) })
}
