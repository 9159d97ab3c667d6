package sqlengine_test

import (
	"fmt"
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

// TestUnionOrderAndLimitBindToUnion: a trailing ORDER BY and LIMIT
// order and limit the whole union after its dedupe, by position or by
// an output column name of the first branch (an alias) or of a later
// branch; on an earlier branch they are a parse error.
func TestUnionOrderAndLimitBindToUnion(t *testing.T) {
	s := paperStore(t)
	for _, tc := range []struct {
		q    string
		want string
	}{
		{"SELECT flnu FROM flights UNION SELECT seatnu FROM f838 ORDER BY seatnu DESC LIMIT 1", "[[103]]"},
		{"SELECT flnu AS n FROM flights WHERE flnu < 102 UNION SELECT seatnu FROM f838 ORDER BY n", "[[1] [2] [3] [4] [100] [101]]"},
		{"SELECT seatty FROM f838 UNION SELECT seatty FROM f838 ORDER BY 1 DESC", "[[window] [middle] [aisle]]"},
	} {
		if got := fmt.Sprint(query(t, s, "continental", tc.q).Rows); got != tc.want {
			t.Errorf("%s: rows = %s, want %s", tc.q, got, tc.want)
		}
	}
	tx := s.Begin()
	defer tx.Rollback()
	for _, q := range []string{
		"SELECT flnu FROM flights ORDER BY rate DESC LIMIT 2 UNION ALL SELECT seatnu FROM f838 WHERE seatnu = 1",
		"SELECT flnu FROM flights UNION SELECT seatnu FROM f838 ORDER BY rate",
	} {
		if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", q); err == nil {
			t.Errorf("%s: no error", q)
		}
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
