package csvstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlparser"
)

func mustExec(t *testing.T, tx *Tx, db, sql string) *sqlengine.Result {
	t.Helper()
	stmt, err := sqlparser.ParseStatement(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	res, err := tx.Exec(db, sql, stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func begin(t *testing.T, s *Store) *Tx {
	t.Helper()
	return s.Begin().(*Tx)
}

func reopen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newDB(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCRUDRoundTrip(t *testing.T) {
	s := newDB(t, "")
	tx := begin(t, s)
	mustExec(t, tx, "d", "CREATE TABLE fleet (id INTEGER, city CHAR(20), rate FLOAT)")
	mustExec(t, tx, "d", "INSERT INTO fleet VALUES (1, 'Houston', 10.5), (2, 'Austin', 20.0), (3, 'Dallas', 30.0)")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = begin(t, s)
	res := mustExec(t, tx, "d", "SELECT city FROM fleet WHERE rate > 15 ORDER BY rate DESC")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "Dallas" || res.Rows[1][0].S != "Austin" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, tx, "d", "UPDATE fleet SET rate = rate + 1 WHERE id = 1")
	if res.RowsAffected != 1 {
		t.Fatalf("updated %d rows", res.RowsAffected)
	}
	res = mustExec(t, tx, "d", "SELECT rate FROM fleet WHERE id = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].F != 11.5 {
		t.Fatalf("rate = %v", res.Rows)
	}
	res = mustExec(t, tx, "d", "DELETE FROM fleet WHERE city = 'Austin'")
	if res.RowsAffected != 1 {
		t.Fatalf("deleted %d rows", res.RowsAffected)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = begin(t, s)
	res = mustExec(t, tx, "d", "SELECT COUNT(*) FROM fleet")
	if res.Rows[0][0].I != 2 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
}

func TestRollbackDiscardsStagedWrites(t *testing.T) {
	s := newDB(t, "")
	tx := begin(t, s)
	mustExec(t, tx, "d", "CREATE TABLE x (a INTEGER)")
	mustExec(t, tx, "d", "INSERT INTO x VALUES (1)")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = begin(t, s)
	mustExec(t, tx, "d", "INSERT INTO x VALUES (2)")
	mustExec(t, tx, "d", "DELETE FROM x WHERE a = 1")
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	tx = begin(t, s)
	res := mustExec(t, tx, "d", "SELECT a FROM x")
	if len(res.Rows) != 1 || res.Rows[0][0].I != 1 {
		t.Fatalf("rows after rollback = %v", res.Rows)
	}
}

func TestPrepareAlwaysRefused(t *testing.T) {
	s := newDB(t, "")
	tx := begin(t, s)
	if err := tx.Prepare(); !errors.Is(err, ErrNoPrepare) {
		t.Fatalf("Prepare = %v, want ErrNoPrepare", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := newDB(t, dir)
	tx := begin(t, s)
	mustExec(t, tx, "d", "CREATE TABLE kv (k CHAR(10), v INTEGER, f FLOAT, b BOOLEAN)")
	mustExec(t, tx, "d", "INSERT INTO kv VALUES ('a, with ''quote''', 1, 2.5, TRUE)")
	mustExec(t, tx, "d", "INSERT INTO kv (k) VALUES ('nulls')")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory sees the committed state.
	s2 := reopen(t, dir)
	if !s2.HasDatabase("d") {
		t.Fatal("database lost across reopen")
	}
	tx = begin(t, s2)
	res := mustExec(t, tx, "d", "SELECT k, v, f, b FROM kv ORDER BY k")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "a, with 'quote'" || res.Rows[0][1].I != 1 || res.Rows[0][2].F != 2.5 || !res.Rows[0][3].B {
		t.Fatalf("row 0 = %v", res.Rows[0])
	}
	if !res.Rows[1][1].IsNull() || !res.Rows[1][3].IsNull() {
		t.Fatalf("NULLs not preserved: %v", res.Rows[1])
	}

	// DROP TABLE removes the file.
	tx = begin(t, s2)
	mustExec(t, tx, "d", "DROP TABLE kv")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "d", "kv.csv")); !os.IsNotExist(err) {
		t.Fatalf("kv.csv survived DROP TABLE: %v", err)
	}
}

func TestJoinAndAggregates(t *testing.T) {
	s := newDB(t, "")
	tx := begin(t, s)
	mustExec(t, tx, "d", "CREATE TABLE flights (fno INTEGER, dest CHAR(20))")
	mustExec(t, tx, "d", "CREATE TABLE fares (fno INTEGER, fare FLOAT)")
	mustExec(t, tx, "d", "INSERT INTO flights VALUES (1, 'Houston'), (2, 'Austin')")
	mustExec(t, tx, "d", "INSERT INTO fares VALUES (1, 100.0), (2, 50.0), (2, 60.0)")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = begin(t, s)
	res := mustExec(t, tx, "d",
		"SELECT flights.dest, fares.fare FROM flights, fares WHERE flights.fno = fares.fno AND fares.fare < 90 ORDER BY fare")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "Austin" || res.Rows[0][1].F != 50.0 {
		t.Fatalf("join rows = %v", res.Rows)
	}
	res = mustExec(t, tx, "d", "SELECT COUNT(fare), SUM(fare), MIN(fare), MAX(fare) FROM fares")
	r := res.Rows[0]
	if r[0].I != 3 || r[1].F != 210.0 || r[2].F != 50.0 || r[3].F != 100.0 {
		t.Fatalf("aggregates = %v", r)
	}
}

// TestSharedExecutorSurface covers what the csv site gained when it moved
// onto the one SQL executor: grouping, UNION and subqueries over table
// images.
func TestSharedExecutorSurface(t *testing.T) {
	s := newDB(t, "")
	tx := begin(t, s)
	mustExec(t, tx, "d", "CREATE TABLE fares (fno INTEGER, class CHAR(8), fare FLOAT)")
	mustExec(t, tx, "d", "CREATE TABLE full (fno INTEGER)")
	mustExec(t, tx, "d", "INSERT INTO fares VALUES (1, 'eco', 100.0), (1, 'biz', 300.0), (2, 'eco', 50.0), (3, 'eco', 70.0), (3, 'biz', NULL)")
	mustExec(t, tx, "d", "INSERT INTO full VALUES (2), (3)")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = begin(t, s)
	res := mustExec(t, tx, "d", "SELECT fno, COUNT(fare), SUM(fare) FROM fares GROUP BY fno HAVING COUNT(*) > 1 ORDER BY fno")
	if len(res.Rows) != 2 || res.Rows[0][0].I != 1 || res.Rows[0][2].F != 400.0 ||
		res.Rows[1][0].I != 3 || res.Rows[1][1].I != 1 || res.Rows[1][2].F != 70.0 {
		t.Fatalf("GROUP BY/HAVING rows = %v", res.Rows)
	}
	// {1, 3} UNION {2, 3}: the duplicate 3 collapses.
	res = mustExec(t, tx, "d", "SELECT fno FROM fares WHERE class = 'biz' UNION SELECT fno FROM full")
	if got := fmt.Sprint(res.Rows); got != "[[1] [3] [2]]" {
		t.Fatalf("UNION rows = %s", got)
	}
	res = mustExec(t, tx, "d", "SELECT class FROM fares WHERE fno IN (SELECT fno FROM full) AND fare > 60")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "eco" {
		t.Fatalf("IN-subquery rows = %v", res.Rows)
	}
	res = mustExec(t, tx, "d", "EXPLAIN ANALYZE SELECT fare FROM fares WHERE fno = 2")
	if res.Plan == nil || res.Plan.Find("scan") == nil || res.Plan.Find("scan").Rows != 1 {
		t.Fatalf("EXPLAIN ANALYZE plan = %+v", res.Plan)
	}
}

// TestPositionsStableWithinStatement pins the storage contract the
// executor relies on: an UPDATE or DELETE collects the positions of its
// victims first and writes afterwards, so deleting one row must not
// shift the others, within the statement or for later statements of the
// same transaction.
func TestPositionsStableWithinStatement(t *testing.T) {
	dir := t.TempDir()
	s := newDB(t, dir)
	tx := begin(t, s)
	mustExec(t, tx, "d", "CREATE TABLE n (i INTEGER, tag CHAR(4))")
	mustExec(t, tx, "d", "INSERT INTO n VALUES (0,'a'), (1,'a'), (2,'a'), (3,'a'), (4,'a'), (5,'a'), (6,'a'), (7,'a')")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx = begin(t, s)
	// Victims 1, 2, 5, 6: each delete after the first would hit the
	// wrong row if positions shifted.
	if res := mustExec(t, tx, "d", "DELETE FROM n WHERE i = 1 OR i = 2 OR i = 5 OR i = 6"); res.RowsAffected != 4 {
		t.Fatalf("deleted %d rows", res.RowsAffected)
	}
	// Same transaction, tombstones still in place.
	if res := mustExec(t, tx, "d", "UPDATE n SET tag = 'b', i = i + 10 WHERE i > 2"); res.RowsAffected != 3 {
		t.Fatalf("updated %d rows", res.RowsAffected)
	}
	mustExec(t, tx, "d", "INSERT INTO n VALUES (99, 'c')")
	if res := mustExec(t, tx, "d", "DELETE FROM n WHERE i = 14"); res.RowsAffected != 1 {
		t.Fatalf("deleted %d rows", res.RowsAffected)
	}
	const q = "SELECT i, tag FROM n"
	want := "[[0 a] [13 b] [17 b] [99 c]]"
	if got := fmt.Sprint(mustExec(t, tx, "d", q).Rows); got != want {
		t.Fatalf("rows in transaction = %s, want %s", got, want)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The tombstones are gone from the committed image and from the file.
	for _, store := range []*Store{s, reopen(t, dir)} {
		if got := fmt.Sprint(mustExec(t, begin(t, store), "d", q).Rows); got != want {
			t.Fatalf("committed rows = %s, want %s", got, want)
		}
	}
}

// TestUnsupportedSurfaceFailsCleanly covers what the storage still
// lacks: views. (Prepare is TestPrepareAlwaysRefused.)
func TestUnsupportedSurfaceFailsCleanly(t *testing.T) {
	s := newDB(t, "")
	tx := begin(t, s)
	mustExec(t, tx, "d", "CREATE TABLE x (a INTEGER)")
	for _, q := range []string{
		"CREATE VIEW v AS SELECT a FROM x",
		"DROP VIEW v",
	} {
		stmt, err := sqlparser.ParseStatement(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if _, err := tx.Exec("d", q, stmt); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("%q: err = %v, want ErrUnsupported", q, err)
		}
	}
	stmt, _ := sqlparser.ParseStatement("SELECT a FROM nosuch")
	if _, err := tx.Exec("d", "", stmt); !errors.Is(err, schema.ErrNoTable) {
		t.Fatalf("missing table err = %v, want schema.ErrNoTable", err)
	}
}
