package sqlengine_test

import (
	"testing"

	"msql/internal/relbackend"
	"msql/internal/sqlengine"
)

func TestUnionDedupes(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		"SELECT source FROM flights UNION SELECT destination FROM flights")
	// sources: Houston, Austin; destinations: San Antonio, Dallas.
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUnionAllKeepsDuplicates(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		"SELECT source FROM flights UNION ALL SELECT source FROM flights")
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestUnionThreeBranches(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		"SELECT flnu FROM flights WHERE flnu = 100 UNION SELECT flnu FROM flights WHERE flnu = 101 UNION SELECT flnu FROM flights WHERE flnu = 100")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUnionArityMismatch(t *testing.T) {
	s := paperStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	_, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", "SELECT flnu FROM flights UNION SELECT flnu, rate FROM flights")
	if err == nil {
		t.Fatal("arity mismatch should error")
	}
}

func TestUnionWithBranchOrderAndLimit(t *testing.T) {
	s := paperStore(t)
	// Per-branch ORDER BY/LIMIT: first branch takes the 2 priciest.
	res := query(t, s, "continental",
		"SELECT flnu FROM flights ORDER BY rate DESC LIMIT 2 UNION ALL SELECT seatnu FROM f838 WHERE seatnu = 1")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUnionInsideInsertSelect(t *testing.T) {
	s := paperStore(t)
	exec(t, s, "continental", "CREATE TABLE all_places (p CHAR(20))")
	res := exec(t, s, "continental",
		"INSERT INTO all_places SELECT source FROM flights UNION SELECT destination FROM flights")
	if res.RowsAffected != 4 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
}

func TestUnionDeparseRoundTrip(t *testing.T) {
	src := "SELECT a FROM t UNION ALL SELECT b FROM u UNION SELECT c FROM v"
	s := mustParseStmt(t, src)
	out := deparse(s)
	s2 := mustParseStmt(t, out)
	if deparse(s2) != out {
		t.Fatalf("not stable: %q vs %q", out, deparse(s2))
	}
}
