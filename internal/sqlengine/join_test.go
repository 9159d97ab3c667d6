package sqlengine_test

import (
	"fmt"
	"testing"

	"msql/internal/relbackend"
	"msql/internal/relstore"
	"msql/internal/sqlengine"
)

func joinStore(t testing.TB) *relstore.Store {
	t.Helper()
	s := relstore.NewStore()
	if err := s.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	for _, q := range []string{
		"CREATE TABLE l (id INTEGER, lv CHAR(4))",
		"CREATE TABLE r (id INTEGER, rv CHAR(4))",
		"CREATE TABLE m (id INTEGER, mv CHAR(4))",
		"INSERT INTO l VALUES (1, 'a'), (2, 'b'), (3, 'c'), (NULL, 'n')",
		"INSERT INTO r VALUES (1, 'x'), (3, 'y'), (3, 'z'), (NULL, 'w')",
		"INSERT INTO m VALUES (1, 'p'), (9, 'q')",
	} {
		if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", q); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	return s
}

func TestHashJoinEquality(t *testing.T) {
	s := joinStore(t)
	res := query(t, s, "db", "SELECT l.lv, r.rv FROM l, r WHERE l.id = r.id ORDER BY rv")
	// Matches: (1,a,x), (3,c,y), (3,c,z). NULLs never join.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].S != "x" || res.Rows[2][1].S != "z" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestHashJoinNullsNeverMatch(t *testing.T) {
	s := joinStore(t)
	res := query(t, s, "db", "SELECT l.lv FROM l, r WHERE l.id = r.id AND l.lv = 'n'")
	if len(res.Rows) != 0 {
		t.Fatalf("NULL ids joined: %v", res.Rows)
	}
}

func TestHashJoinWithExpressionSide(t *testing.T) {
	s := joinStore(t)
	// r.id = l.id + 2 matches l.id=1 with r.id=3 (twice).
	res := query(t, s, "db", "SELECT l.lv, r.rv FROM l, r WHERE r.id = l.id + 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[0].S != "a" {
			t.Fatalf("rows = %v", r)
		}
	}
}

func TestHashJoinThreeWay(t *testing.T) {
	s := joinStore(t)
	res := query(t, s, "db",
		"SELECT l.lv, r.rv, m.mv FROM l, r, m WHERE l.id = r.id AND m.id = l.id")
	// Only id=1 appears in all three.
	if len(res.Rows) != 1 || res.Rows[0][2].S != "p" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoinResidualPredicateStillApplies(t *testing.T) {
	s := joinStore(t)
	// Equality drives the hash join; the inequality filters the result.
	res := query(t, s, "db", "SELECT r.rv FROM l, r WHERE l.id = r.id AND r.rv <> 'x'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestJoinOrPredicateNotPushedIncorrectly(t *testing.T) {
	s := joinStore(t)
	// OR across sources is one conjunct; must evaluate with all bound.
	res := query(t, s, "db",
		"SELECT l.lv, r.rv FROM l, r WHERE l.id = 1 OR r.rv = 'y'")
	// l.id=1 pairs with all 4 r rows; r.rv='y' pairs with remaining 3 l
	// rows (l.id=1 already counted) -> 4 + 3 = 7.
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d: %v", len(res.Rows), res.Rows)
	}
}

func TestJoinAgreesWithNestedLoopSemantics(t *testing.T) {
	// Cross-check: the optimized join must produce exactly the rows that
	// brute-force row enumeration + full WHERE evaluation would.
	s := relstore.NewStore()
	if err := s.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", "CREATE TABLE a (x INTEGER)")
	sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", "CREATE TABLE b (y INTEGER)")
	for i := 0; i < 12; i++ {
		sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", fmt.Sprintf("INSERT INTO a VALUES (%d)", i%5))
		sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", fmt.Sprintf("INSERT INTO b VALUES (%d)", i%4))
	}
	tx.Commit()

	res := query(t, s, "db", "SELECT x, y FROM a, b WHERE x = y")
	expected := 0
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			if i%5 == j%4 {
				expected++
			}
		}
	}
	if len(res.Rows) != expected {
		t.Fatalf("rows = %d, want %d", len(res.Rows), expected)
	}
	for _, r := range res.Rows {
		xi, _ := r[0].AsInt()
		yi, _ := r[1].AsInt()
		if xi != yi {
			t.Fatalf("bad row %v", r)
		}
	}
}

func TestJoinCorrelatedSubqueryStaysUnplanned(t *testing.T) {
	s := joinStore(t)
	// A correlated subquery in WHERE must evaluate with all sources
	// bound, never get pushed down.
	res := query(t, s, "db",
		"SELECT l.lv FROM l WHERE l.id = (SELECT MIN(r.id) FROM r WHERE r.id = l.id)")
	if len(res.Rows) != 2 { // ids 1 and 3
		t.Fatalf("rows = %v", res.Rows)
	}
}
