package sqlengine_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"msql/internal/relbackend"
	"msql/internal/relstore"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
)

// paperScript is the CONTINENTAL airline database from the paper's
// appendix, plus enough rows to exercise every query form.
var paperScript = []string{
	`CREATE TABLE flights (flnu INTEGER, source CHAR(20), dep CHAR(5),
		destination CHAR(20), arr CHAR(5), day CHAR(10), rate FLOAT)`,
	`CREATE TABLE f838 (seatnu INTEGER, seatty CHAR(10), seatstatus CHAR(10), clientname CHAR(20))`,
	`INSERT INTO flights VALUES
		(100, 'Houston', '08:00', 'San Antonio', '09:00', 'mon', 100.0),
		(101, 'Houston', '10:00', 'San Antonio', '11:00', 'tue', 120.0),
		(102, 'Houston', '12:00', 'Dallas', '13:00', 'mon', 80.0),
		(103, 'Austin', '09:00', 'San Antonio', '09:45', 'wed', 60.0)`,
	`INSERT INTO f838 VALUES
		(1, 'window', 'FREE', NULL),
		(2, 'aisle', 'TAKEN', 'smith'),
		(3, 'window', 'FREE', NULL),
		(4, 'middle', 'FREE', NULL)`,
}

// runScript executes and commits script on s.
func runScript(t testing.TB, s *relstore.Store, db string, script []string) {
	t.Helper()
	tx := s.Begin()
	for _, q := range script {
		if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), db, q); err != nil {
			t.Fatalf("setup %q: %v", q, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// paperStore builds paperScript's database in a memory relstore.
func paperStore(t testing.TB) *relstore.Store {
	t.Helper()
	s := relstore.NewStore()
	if err := s.CreateDatabase("continental"); err != nil {
		t.Fatal(err)
	}
	runScript(t, s, "continental", paperScript)
	return s
}

func query(t *testing.T, s *relstore.Store, db, q string) *sqlengine.Result {
	t.Helper()
	tx := s.Begin()
	defer tx.Rollback()
	res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), db, q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return res
}

func exec(t *testing.T, s *relstore.Store, db, q string) *sqlengine.Result {
	t.Helper()
	tx := s.Begin()
	res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), db, q)
	if err != nil {
		t.Fatalf("exec %q: %v", q, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSelectStar(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT * FROM flights")
	if len(res.Rows) != 4 || len(res.Columns) != 7 {
		t.Fatalf("rows=%d cols=%d", len(res.Rows), len(res.Columns))
	}
	if res.Columns[0].Name != "flnu" || res.Columns[6].Name != "rate" {
		t.Fatalf("columns = %v", res.ColumnNames())
	}
}

func TestSelectWhere(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		"SELECT flnu, rate FROM flights WHERE source = 'Houston' AND destination = 'San Antonio'")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if n, _ := r[0].AsInt(); n != 100 && n != 101 {
			t.Fatalf("unexpected flnu %v", r[0])
		}
	}
}

func TestSelectExpressionsAndAliases(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		"SELECT flnu, rate * 1.1 AS raised FROM flights WHERE flnu = 100")
	if res.Columns[1].Name != "raised" {
		t.Fatalf("columns = %v", res.ColumnNames())
	}
	f, _ := res.Rows[0][1].AsFloat()
	if f < 109.99 || f > 110.01 {
		t.Fatalf("raised = %v", res.Rows[0][1])
	}
}

func TestSelectOrderLimit(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT flnu FROM flights ORDER BY rate DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	a, _ := res.Rows[0][0].AsInt()
	b, _ := res.Rows[1][0].AsInt()
	if a != 101 || b != 100 {
		t.Fatalf("order = %d, %d", a, b)
	}
}

func TestSelectOrderByAliasAndPosition(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT flnu, rate AS r FROM flights ORDER BY r")
	first, _ := res.Rows[0][0].AsInt()
	if first != 103 {
		t.Fatalf("cheapest = %d", first)
	}
	res = query(t, s, "continental", "SELECT flnu, rate FROM flights ORDER BY 2 DESC")
	first, _ = res.Rows[0][0].AsInt()
	if first != 101 {
		t.Fatalf("priciest = %d", first)
	}
}

func TestSelectDistinct(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT DISTINCT source FROM flights")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregates(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		"SELECT COUNT(*), MIN(rate), MAX(rate), AVG(rate), SUM(rate) FROM flights")
	r := res.Rows[0]
	if n, _ := r[0].AsInt(); n != 4 {
		t.Fatalf("count = %v", r[0])
	}
	if f, _ := r[1].AsFloat(); f != 60 {
		t.Fatalf("min = %v", r[1])
	}
	if f, _ := r[2].AsFloat(); f != 120 {
		t.Fatalf("max = %v", r[2])
	}
	if f, _ := r[3].AsFloat(); f != 90 {
		t.Fatalf("avg = %v", r[3])
	}
	if f, _ := r[4].AsFloat(); f != 360 {
		t.Fatalf("sum = %v", r[4])
	}
}

func TestAggregateIgnoresNulls(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT COUNT(clientname) FROM f838")
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("count(clientname) = %v", res.Rows[0][0])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT COUNT(*), SUM(rate) FROM flights WHERE flnu > 999")
	if n, _ := res.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	if !res.Rows[0][1].IsNull() {
		t.Fatalf("sum over empty = %v", res.Rows[0][1])
	}
}

func TestGroupByHaving(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		`SELECT source, COUNT(*) AS n, AVG(rate) FROM flights
		 GROUP BY source HAVING COUNT(*) > 1 ORDER BY n DESC`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "Houston" {
		t.Fatalf("group = %v", res.Rows[0][0])
	}
	if n, _ := res.Rows[0][1].AsInt(); n != 3 {
		t.Fatalf("n = %v", res.Rows[0][1])
	}
}

func TestCountDistinct(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT COUNT(DISTINCT source) FROM flights")
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("count distinct = %v", res.Rows[0][0])
	}
}

func TestJoinTwoTables(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		`SELECT f.flnu, s.seatnu FROM flights f, f838 s
		 WHERE f.flnu = 100 AND s.seatstatus = 'FREE'`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestScalarSubquery(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		"SELECT seatnu FROM f838 WHERE seatnu = (SELECT MIN(seatnu) FROM f838 WHERE seatstatus = 'FREE')")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("min free seat = %v", res.Rows[0][0])
	}
}

func TestCorrelatedSubquery(t *testing.T) {
	s := paperStore(t)
	// Flights that are the cheapest from their source.
	res := query(t, s, "continental",
		`SELECT flnu FROM flights f WHERE rate = (SELECT MIN(rate) FROM flights g WHERE g.source = f.source) ORDER BY flnu`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	a, _ := res.Rows[0][0].AsInt()
	b, _ := res.Rows[1][0].AsInt()
	if a != 102 || b != 103 {
		t.Fatalf("cheapest per source = %d, %d", a, b)
	}
}

func TestScalarSubqueryCardinalityError(t *testing.T) {
	s := paperStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	_, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", "SELECT flnu FROM flights WHERE rate = (SELECT rate FROM flights)")
	if !errors.Is(err, sqlengine.ErrNotScalar) {
		t.Fatalf("err = %v", err)
	}
}

func TestInSubqueryAndList(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		"SELECT flnu FROM flights WHERE flnu IN (100, 103) ORDER BY flnu")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = query(t, s, "continental",
		"SELECT seatnu FROM f838 WHERE seatnu NOT IN (SELECT seatnu FROM f838 WHERE seatstatus = 'TAKEN') ORDER BY seatnu")
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestPredicates(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT flnu FROM flights WHERE rate BETWEEN 80 AND 100 ORDER BY flnu")
	if len(res.Rows) != 2 {
		t.Fatalf("between rows = %v", res.Rows)
	}
	res = query(t, s, "continental", "SELECT seatnu FROM f838 WHERE clientname IS NULL")
	if len(res.Rows) != 3 {
		t.Fatalf("is null rows = %v", res.Rows)
	}
	res = query(t, s, "continental", "SELECT seatnu FROM f838 WHERE clientname IS NOT NULL")
	if len(res.Rows) != 1 {
		t.Fatalf("is not null rows = %v", res.Rows)
	}
	res = query(t, s, "continental", "SELECT flnu FROM flights WHERE destination LIKE 'San%'")
	if len(res.Rows) != 3 {
		t.Fatalf("like rows = %v", res.Rows)
	}
	res = query(t, s, "continental", "SELECT flnu FROM flights WHERE NOT (source = 'Houston')")
	if len(res.Rows) != 1 {
		t.Fatalf("not rows = %v", res.Rows)
	}
}

func TestNullComparisonsAreUnknown(t *testing.T) {
	s := paperStore(t)
	// clientname = 'smith' is UNKNOWN for NULL rows -> excluded; and so is
	// its negation.
	a := query(t, s, "continental", "SELECT seatnu FROM f838 WHERE clientname = 'smith'")
	b := query(t, s, "continental", "SELECT seatnu FROM f838 WHERE NOT (clientname = 'smith')")
	if len(a.Rows)+len(b.Rows) != 1 {
		t.Fatalf("three-valued logic broken: %d + %d rows", len(a.Rows), len(b.Rows))
	}
}

func TestScalarFunctions(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		"SELECT UPPER(source), LOWER(day), LENGTH(source), ABS(0 - rate), ROUND(rate / 3, 1), SUBSTR(source, 1, 3), COALESCE(NULL, 'x'), CONCAT(source, '-', day) FROM flights WHERE flnu = 100")
	r := res.Rows[0]
	if r[0].S != "HOUSTON" || r[1].S != "mon" {
		t.Fatalf("upper/lower = %v %v", r[0], r[1])
	}
	if n, _ := r[2].AsInt(); n != 7 {
		t.Fatalf("length = %v", r[2])
	}
	if f, _ := r[3].AsFloat(); f != 100 {
		t.Fatalf("abs = %v", r[3])
	}
	if f, _ := r[4].AsFloat(); f != 33.3 {
		t.Fatalf("round = %v", r[4])
	}
	if r[5].S != "Hou" {
		t.Fatalf("substr = %v", r[5])
	}
	if r[6].S != "x" {
		t.Fatalf("coalesce = %v", r[6])
	}
	if r[7].S != "Houston-mon" {
		t.Fatalf("concat = %v", r[7])
	}
}

func TestUpdatePaperFareRaise(t *testing.T) {
	s := paperStore(t)
	res := exec(t, s, "continental",
		"UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston' AND destination = 'San Antonio'")
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	check := query(t, s, "continental", "SELECT rate FROM flights WHERE flnu = 100")
	f, _ := check.Rows[0][0].AsFloat()
	if f < 109.99 || f > 110.01 {
		t.Fatalf("rate = %v", check.Rows[0][0])
	}
	// Unmatched rows untouched.
	check = query(t, s, "continental", "SELECT rate FROM flights WHERE flnu = 102")
	if f, _ := check.Rows[0][0].AsFloat(); f != 80 {
		t.Fatalf("rate = %v", check.Rows[0][0])
	}
}

func TestUpdateWithSubquery(t *testing.T) {
	s := paperStore(t)
	res := exec(t, s, "continental",
		`UPDATE f838 SET seatstatus = 'TAKEN', clientname = 'wenders'
		 WHERE seatnu = (SELECT MIN(seatnu) FROM f838 WHERE seatstatus = 'FREE')`)
	if res.RowsAffected != 1 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	check := query(t, s, "continental", "SELECT clientname FROM f838 WHERE seatnu = 1")
	if check.Rows[0][0].S != "wenders" {
		t.Fatalf("client = %v", check.Rows[0][0])
	}
}

func TestUpdateUsesPreImage(t *testing.T) {
	s := paperStore(t)
	// Swapping via pre-image semantics: both assignments read old values.
	exec(t, s, "continental", "UPDATE flights SET dep = arr, arr = dep WHERE flnu = 100")
	check := query(t, s, "continental", "SELECT dep, arr FROM flights WHERE flnu = 100")
	if check.Rows[0][0].S != "09:00" || check.Rows[0][1].S != "08:00" {
		t.Fatalf("swap failed: %v", check.Rows[0])
	}
}

func TestDelete(t *testing.T) {
	s := paperStore(t)
	res := exec(t, s, "continental", "DELETE FROM flights WHERE rate < 90")
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	check := query(t, s, "continental", "SELECT COUNT(*) FROM flights")
	if n, _ := check.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("remaining = %v", check.Rows[0][0])
	}
}

func TestInsertPartialColumnsAndCoercion(t *testing.T) {
	s := paperStore(t)
	exec(t, s, "continental", "INSERT INTO flights (flnu, source, rate) VALUES (200, 'Dallas', 75)")
	check := query(t, s, "continental", "SELECT destination, rate FROM flights WHERE flnu = 200")
	if !check.Rows[0][0].IsNull() {
		t.Fatalf("dest should be NULL, got %v", check.Rows[0][0])
	}
	if check.Rows[0][1].K != sqlval.KindFloat {
		t.Fatalf("rate kind = %v", check.Rows[0][1].K)
	}
}

func TestInsertSelect(t *testing.T) {
	s := paperStore(t)
	exec(t, s, "continental", "CREATE TABLE cheap (flnu INTEGER, rate FLOAT)")
	res := exec(t, s, "continental", "INSERT INTO cheap SELECT flnu, rate FROM flights WHERE rate < 90")
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	check := query(t, s, "continental", "SELECT COUNT(*) FROM cheap")
	if n, _ := check.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("cheap rows = %v", check.Rows[0][0])
	}
}

func TestViews(t *testing.T) {
	s := paperStore(t)
	exec(t, s, "continental", "CREATE VIEW sa_flights AS SELECT flnu, rate FROM flights WHERE destination = 'San Antonio'")
	res := query(t, s, "continental", "SELECT COUNT(*) FROM sa_flights")
	if n, _ := res.Rows[0][0].AsInt(); n != 3 {
		t.Fatalf("view rows = %v", res.Rows[0][0])
	}
	// Join a view with a table.
	res = query(t, s, "continental", "SELECT v.flnu FROM sa_flights v, flights f WHERE v.flnu = f.flnu AND f.day = 'mon'")
	if len(res.Rows) != 1 {
		t.Fatalf("join rows = %v", res.Rows)
	}
	exec(t, s, "continental", "DROP VIEW sa_flights")
	tx := s.Begin()
	defer tx.Rollback()
	if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", "SELECT * FROM sa_flights"); err == nil {
		t.Fatal("dropped view still queryable")
	}
}

func TestDescribeTable(t *testing.T) {
	s := paperStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	desc, err := sqlengine.DescribeTable(relbackend.Storage(tx), "continental", "flights")
	if err != nil {
		t.Fatal(err)
	}
	if cols := desc.Columns; len(cols) != 7 || cols[0].Name != "flnu" || cols[1].Width != 20 {
		t.Fatalf("cols = %+v", cols)
	}
	n, _ := query(t, s, "continental", "SELECT COUNT(*) FROM flights").Rows[0][0].AsInt()
	if desc.Rows != n || n == 0 {
		t.Fatalf("described rows = %d, COUNT(*) = %d", desc.Rows, n)
	}
	if _, err := sqlengine.DescribeTable(relbackend.Storage(tx), "continental", "nope"); err == nil {
		t.Fatal("missing table should error")
	}
}

func TestDescribeView(t *testing.T) {
	s := paperStore(t)
	exec(t, s, "continental", "CREATE VIEW v2 AS SELECT flnu, rate FROM flights")
	tx := s.Begin()
	defer tx.Rollback()
	desc, err := sqlengine.DescribeTable(relbackend.Storage(tx), "continental", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if cols := desc.Columns; len(cols) != 2 || cols[0].Name != "flnu" || desc.Rows != 0 {
		t.Fatalf("view = %+v, want 2 columns and no row count", desc)
	}
}

func TestAmbiguousAndUnknownColumns(t *testing.T) {
	s := paperStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	// day exists only in flights, seatnu only in f838 -> fine unqualified.
	if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", "SELECT day, seatnu FROM flights, f838"); err != nil {
		t.Fatal(err)
	}
	if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", "SELECT bogus FROM flights"); !errors.Is(err, sqlengine.ErrUnknownColumn) {
		t.Fatalf("unknown col err = %v", err)
	}
	// Self-join makes every column ambiguous unqualified.
	if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", "SELECT flnu FROM flights a, flights b"); !errors.Is(err, sqlengine.ErrAmbiguousColumn) {
		t.Fatalf("ambiguous err = %v", err)
	}
}

// TestWideTableColumnAddressing reads column 1000 of a 1001-column
// table, alone and joined: a column reference addresses (source, column)
// with no limit on either, so it neither reads another source's column
// nor runs off the end of its row.
func TestWideTableColumnAddressing(t *testing.T) {
	const width = 1001
	var defs, vals []string
	for i := 0; i < width; i++ {
		defs = append(defs, fmt.Sprintf("c%d INTEGER", i))
		vals = append(vals, fmt.Sprint(i))
	}
	s := relstore.NewStore()
	if err := s.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	runScript(t, s, "d", []string{
		"CREATE TABLE t (" + strings.Join(defs, ", ") + ")",
		"INSERT INTO t VALUES (" + strings.Join(vals, ", ") + ")",
		"CREATE TABLE u (k INTEGER)",
		"INSERT INTO u VALUES (42)",
	})
	for _, tc := range []struct{ q, want string }{
		{"SELECT c1000 FROM t", "[1000]"},
		{"SELECT c1000, k FROM t, u", "[1000 42]"},
		{"SELECT k, c999 FROM u, t WHERE c1000 = 1000", "[42 999]"},
	} {
		res := query(t, s, "d", tc.q)
		if len(res.Rows) != 1 || fmt.Sprint(res.Rows[0]) != tc.want {
			t.Errorf("%s = %v, want one row %s", tc.q, res.Rows, tc.want)
		}
	}
}

func TestOptionalColumnYieldsNull(t *testing.T) {
	s := paperStore(t)
	// f838 has no "rate": the MSQL optional marker degrades to NULL.
	res := query(t, s, "continental", "SELECT seatnu, ~rate FROM f838 WHERE seatnu = 1")
	if !res.Rows[0][1].IsNull() {
		t.Fatalf("optional col = %v", res.Rows[0][1])
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT 1 + 2 AS three")
	if n, _ := res.Rows[0][0].AsInt(); n != 3 {
		t.Fatalf("value = %v", res.Rows[0][0])
	}
	res = query(t, s, "continental", "SELECT 1 WHERE 1 = 2")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDatabaseQualifiedAccess(t *testing.T) {
	s := paperStore(t)
	if err := s.CreateDatabase("scratch"); err != nil {
		t.Fatal(err)
	}
	exec(t, s, "scratch", "CREATE TABLE notes (txt CHAR(40))")
	// Cross-database reference from a session whose current db differs.
	exec(t, s, "scratch", "INSERT INTO scratch.notes VALUES ('hello')")
	res := query(t, s, "continental", "SELECT txt FROM scratch.notes")
	if len(res.Rows) != 1 || res.Rows[0][0].S != "hello" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestDDLThroughEngine(t *testing.T) {
	s := paperStore(t)
	exec(t, s, "continental", "CREATE DATABASE extra")
	exec(t, s, "extra", "CREATE TABLE t (a INTEGER)")
	exec(t, s, "extra", "DROP TABLE t")
	exec(t, s, "continental", "DROP TABLE IF EXISTS never_there")
	exec(t, s, "continental", "DROP DATABASE extra")
	tx := s.Begin()
	defer tx.Rollback()
	if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "extra", "SELECT 1 FROM t"); err == nil {
		t.Fatal("dropped database still accessible")
	}
}

func TestLimitZero(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT flnu FROM flights LIMIT 0")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestQualifiedStar(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT f.* FROM flights f, f838 s WHERE s.seatnu = 1")
	if len(res.Columns) != 7 || len(res.Rows) != 4 {
		t.Fatalf("cols=%d rows=%d", len(res.Columns), len(res.Rows))
	}
}

// Property: UPDATE then reverse UPDATE restores all rates (the paper's
// compensation pattern rate/1.1 after rate*1.1, within float tolerance).
func TestQuickCompensationRestoresRates(t *testing.T) {
	s := paperStore(t)
	readRates := func() []float64 {
		res := query(t, s, "continental", "SELECT rate FROM flights ORDER BY flnu")
		var out []float64
		for _, r := range res.Rows {
			f, _ := r[0].AsFloat()
			out = append(out, f)
		}
		return out
	}
	f := func(mult uint8) bool {
		factor := 1.0 + float64(mult%50+1)/100.0
		before := readRates()
		factorStr := sqlval.Float(factor).String()
		exec(t, s, "continental", "UPDATE flights SET rate = rate * "+factorStr+" WHERE source = 'Houston'")
		exec(t, s, "continental", "UPDATE flights SET rate = rate / "+factorStr+" WHERE source = 'Houston'")
		after := readRates()
		if len(before) != len(after) {
			return false
		}
		for i := range before {
			if diff := before[i] - after[i]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: COUNT(*) equals the number of inserted rows for arbitrary
// small batches.
func TestQuickInsertCount(t *testing.T) {
	s := relstore.NewStore()
	if err := s.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "d", "CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	total := 0
	f := func(k uint8) bool {
		n := int(k % 8)
		tx := s.Begin()
		for i := 0; i < n; i++ {
			if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "d", "INSERT INTO t VALUES (1)"); err != nil {
				tx.Rollback()
				return false
			}
		}
		tx.Commit()
		total += n
		res, err := func() (*sqlengine.Result, error) {
			tx := s.Begin()
			defer tx.Rollback()
			return sqlengine.ExecuteSQL(relbackend.Storage(tx), "d", "SELECT COUNT(*) FROM t")
		}()
		if err != nil {
			return false
		}
		got, _ := res.Rows[0][0].AsInt()
		return got == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorMessagesMentionObjects(t *testing.T) {
	s := paperStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	_, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", "SELECT * FROM nothere")
	if err == nil || !strings.Contains(err.Error(), "nothere") {
		t.Fatalf("err = %v", err)
	}
	_, err = sqlengine.ExecuteSQL(relbackend.Storage(tx), "nodb", "SELECT 1 FROM t")
	if err == nil || !strings.Contains(err.Error(), "nodb") {
		t.Fatalf("err = %v", err)
	}
}

func TestHavingWithoutGroupBy(t *testing.T) {
	s := paperStore(t)
	// Implicit single group: HAVING filters the lone aggregate row.
	res := query(t, s, "continental", "SELECT COUNT(*) FROM flights HAVING COUNT(*) > 10")
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = query(t, s, "continental", "SELECT COUNT(*) FROM flights HAVING COUNT(*) > 2")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByAggregateExpression(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		"SELECT source FROM flights GROUP BY source ORDER BY SUM(rate) DESC")
	if len(res.Rows) != 2 || res.Rows[0][0].S != "Houston" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestGroupByExpression(t *testing.T) {
	s := paperStore(t)
	// Group by a computed bucket.
	res := query(t, s, "continental",
		"SELECT COUNT(*) FROM flights GROUP BY rate > 90 ORDER BY 1")
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregateOfExpression(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental", "SELECT SUM(rate * 2) FROM flights")
	if f, _ := res.Rows[0][0].AsFloat(); f != 720 {
		t.Fatalf("sum = %v", res.Rows[0][0])
	}
}
