package sqlmini

import "testing"

// seedCorpus is the paper's Table II statements plus malformed variants
// that probe each tokenizer branch.
func seedCorpus() []string {
	return []string{
		// Table II.
		"INSERT INTO orderline VALUES (DEFAULT, ?, ?, ?, ?)",
		"SELECT O_ID, O_C_ID, O_TOTALAMOUNT, O_UPDATEDDATE FROM orders WHERE O_ID = ?",
		"UPDATE orders SET O_UPDATEDDATE = ?, O_STATUS = 'PAID' WHERE O_ID = ?",
		"UPDATE customer SET C_CREDIT = C_CREDIT + ?, C_UPDATEDDATE = ? WHERE C_ID = ?",
		"SELECT O_ID, O_DATE, O_STATUS FROM orders WHERE O_ID = ?",
		"DELETE FROM orderline WHERE OL_ID = ?",
		// Literals of every kind.
		"SELECT * FROM orders WHERE O_ID = 7",
		"SELECT * FROM orders WHERE O_ID = -7",
		"UPDATE customer SET C_CREDIT = C_CREDIT + -12.5 WHERE C_ID = 1",
		"INSERT INTO orderline VALUES (DEFAULT, 1, 2.5, 'it''s', 'x')",
		"DELETE FROM orderline WHERE OL_ID = 9",
		// Secondary predicates and index DDL.
		"SELECT O_ID FROM orders WHERE O_STATUS = 'PAID'",
		"SELECT * FROM orders WHERE O_C_ID BETWEEN 1 AND 5",
		"SELECT O_ID, O_TOTALAMOUNT FROM orders WHERE O_TOTALAMOUNT BETWEEN ? AND ?",
		"SELECT * FROM orders WHERE O_ID BETWEEN -2 AND 7",
		"CREATE INDEX ix_orders_cust ON orders (O_C_ID)",
		"create index IX on ORDERS ( o_status ) ;",
		// Malformed on purpose: unterminated string, stray symbols, empty
		// input, half-written clauses.
		"SELECT * FROM nope WHERE X = 1",
		"INSERT INTO orders VALUES (1, 2)",
		"SELECT * FROM orders WHERE O_ID = 'abc",
		"UPDATE orders SET",
		"((((,,,===",
		"",
		"SELECT",
		"INSERT INTO orders VALUES (1.2.3)",
		"DELETE FROM orders WHERE O_ID = ?;",
		"SELECT * FROM orders WHERE O_C_ID BETWEEN 1",
		"SELECT * FROM orders WHERE O_C_ID BETWEEN 1 OR 2",
		"UPDATE orders SET O_STATUS = 'X' WHERE O_C_ID BETWEEN 1 AND 2",
		"DELETE FROM orders WHERE O_C_ID = 3",
		"CREATE INDEX ix ON orders",
		"CREATE INDEX ON orders (O_C_ID)",
		"CREATE TABLE t (x)",
		"CREATE INDEX ix ON orders (O_C_ID, O_DATE)",
	}
}

// FuzzLexer feeds arbitrary bytes to the tokenizer; the only contract is
// that it never panics (errors are fine).
func FuzzLexer(f *testing.F) {
	for _, s := range seedCorpus() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = lex(src)
	})
}

func TestLexerEdgeCases(t *testing.T) {
	toks, err := lex("SELECT a, b2 FROM t WHERE x = -3.5; ")
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Fatal("no EOF token")
	}
	// -3.5 must lex as one number.
	found := false
	for _, tk := range toks {
		if tk.kind == tokNumber && tk.text == "-3.5" {
			found = true
		}
	}
	if !found {
		t.Fatalf("negative float not lexed: %v", toks)
	}
	// Escaped quote inside string.
	toks, err = lex("UPDATE t SET s = 'it''s' WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range toks {
		if tk.kind == tokString && tk.text != "it's" {
			t.Fatalf("string escape: %q", tk.text)
		}
	}
	if _, err := lex("SELECT @ FROM t"); err == nil {
		t.Fatal("bad character accepted")
	}
}
