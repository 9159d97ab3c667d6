package decompose

import (
	"errors"
	"strings"
	"testing"

	"msql/internal/catalog"
	"msql/internal/msqlparser"
	"msql/internal/schema"
	"msql/internal/semvar"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

func paperGDD(t testing.TB) *catalog.GDD {
	t.Helper()
	g := catalog.NewGDD()
	put := func(db, svc, table string, cols ...[2]string) {
		if _, err := g.ServiceOf(db); err != nil {
			g.DefineDatabase(db, svc)
		}
		def := catalog.TableDef{Name: table}
		for _, c := range cols {
			k := sqlval.KindString
			switch c[1] {
			case "int":
				k = sqlval.KindInt
			case "float":
				k = sqlval.KindFloat
			}
			def.Columns = append(def.Columns, schema.Column{Name: c[0], Type: k})
		}
		if err := g.PutTable(db, def); err != nil {
			t.Fatal(err)
		}
	}
	col := func(n, t string) [2]string { return [2]string{n, t} }
	put("continental", "svc1", "flights",
		col("flnu", "int"), col("source", "str"), col("destination", "str"), col("day", "str"), col("rate", "float"))
	put("united", "svc3", "flight",
		col("fn", "int"), col("sour", "str"), col("dest", "str"), col("day", "str"), col("rates", "float"))
	put("avis", "svc4", "cars",
		col("code", "int"), col("cartype", "str"), col("rate", "float"), col("carst", "str"))
	put("national", "svc5", "vehicle",
		col("vcode", "int"), col("vty", "str"), col("vstat", "str"))
	return g
}

func expandOne(t *testing.T, g *catalog.GDD, useSrc, bodySrc string) semvar.Elementary {
	t.Helper()
	st, err := msqlparser.ParseStatement(useSrc)
	if err != nil {
		t.Fatal(err)
	}
	scope := semvar.ScopeFromUse(st.(*msqlparser.UseStmt))
	body, err := sqlparser.ParseStatement(bodySrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := semvar.Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 1 {
		t.Fatalf("expected one elementary query, got %d", len(res.Queries))
	}
	return res.Queries[0]
}

func TestDecomposeFanOutPassThrough(t *testing.T) {
	g := paperGDD(t)
	el := expandOne(t, g, "USE avis", "SELECT code FROM cars WHERE carst = 'available'")
	plan, err := Decompose(g, el)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Subqueries) != 1 || plan.Final != nil || len(plan.Ships) != 0 {
		t.Fatalf("plan = %+v", plan)
	}
	sq := plan.Subqueries[0]
	if sq.Database != "avis" || sq.SQL() != "SELECT code FROM cars WHERE carst = 'available'" {
		t.Fatalf("subquery = %+v", sq)
	}
}

func TestDecomposeSingleDBGlobalDML(t *testing.T) {
	g := paperGDD(t)
	el := expandOne(t, g, "USE continental united", "UPDATE continental.flights SET rate = rate * 1.1")
	plan, err := Decompose(g, el)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Subqueries) != 1 || plan.Subqueries[0].Database != "continental" {
		t.Fatalf("plan = %+v", plan)
	}
	if got := plan.Subqueries[0].SQL(); got != "UPDATE flights SET rate = rate * 1.1" {
		t.Fatalf("sql = %s", got)
	}
}

func TestDecomposeCrossJoinSelect(t *testing.T) {
	g := paperGDD(t)
	el := expandOne(t, g, "USE continental united",
		`SELECT c.flnu, u.fn FROM continental.flights c, united.flight u
		 WHERE c.day = 'mon' AND u.day = 'mon' AND c.rate > u.rates`)
	plan, err := Decompose(g, el)
	if err != nil {
		t.Fatal(err)
	}
	// Equal predicates and no row counts: a tie, so continental (first in
	// FROM) coordinates, and only united's group is shipped.
	if len(plan.Subqueries) != 1 || len(plan.Ships) != 1 || plan.Final == nil {
		t.Fatalf("plan shape: %d subqueries, %d ships, final=%v", len(plan.Subqueries), len(plan.Ships), plan.Final)
	}
	if plan.CoordinatorDB != "continental" {
		t.Fatalf("coordinator = %s", plan.CoordinatorDB)
	}
	// The shipped group's local predicate is pushed down.
	unitSQL := plan.Subqueries[0].SQL()
	if plan.Subqueries[0].Database != "united" || !strings.Contains(unitSQL, "WHERE u.day = 'mon'") {
		t.Errorf("united subquery lost its local predicate: %s", unitSQL)
	}
	if !strings.Contains(unitSQL, "u.fn AS u_fn") || !strings.Contains(unitSQL, "u.rates AS u_rates") {
		t.Errorf("united subquery projection: %s", unitSQL)
	}
	// Q' reads continental's table in place, with its local predicate
	// folded in, and the cross predicate over the shipped columns.
	final := plan.FinalSQL()
	want := "SELECT c.flnu AS flnu, mtmp_united.u_fn AS fn FROM mtmp_united, flights c WHERE c.day = 'mon' AND c.rate > mtmp_united.u_rates"
	if final != want {
		t.Errorf("final:\n got  %s\n want %s", final, want)
	}
	// Shipped schemas carry the GDD types.
	for _, c := range plan.Ships[0].Columns {
		if c.Name == "u_rates" && c.Type != sqlval.KindFloat {
			t.Errorf("u_rates type = %v", c.Type)
		}
		if c.Name == "u_fn" && c.Type != sqlval.KindInt {
			t.Errorf("u_fn type = %v", c.Type)
		}
	}
	if len(plan.Cleanup) != 1 || plan.Cleanup[0] != "mtmp_united" {
		t.Fatalf("cleanup = %v", plan.Cleanup)
	}
	if len(plan.Estimates) != 2 || plan.Estimates[0].Database != "continental" {
		t.Fatalf("estimates = %v", plan.Estimates)
	}
}

// setTable records a row count and primary key for a table of the
// test GDD.
func setTable(t *testing.T, g *catalog.GDD, db, table string, rows int64, keys ...string) {
	t.Helper()
	def, err := g.Table(db, table)
	if err != nil {
		t.Fatal(err)
	}
	def.Rows = rows
	for i := range def.Columns {
		for _, k := range keys {
			if def.Columns[i].Name == k {
				def.Columns[i].Key = true
			}
		}
	}
	if err := g.PutTable(db, *def); err != nil {
		t.Fatal(err)
	}
}

func decomposeQuery(t *testing.T, g *catalog.GDD, use, query string) *Plan {
	t.Helper()
	plan, err := Decompose(g, expandOne(t, g, use, query))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestDecomposeCoordinatorIsLargestGroup: the group with the most
// estimated rows coordinates, whatever its place in FROM, and its own
// rows are never shipped.
func TestDecomposeCoordinatorIsLargestGroup(t *testing.T) {
	g := paperGDD(t)
	setTable(t, g, "continental", "flights", 10)
	setTable(t, g, "united", "flight", 5000)
	for _, q := range []string{
		"SELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.rate < u.rates",
		"SELECT c.flnu, u.fn FROM united.flight u, continental.flights c WHERE c.rate < u.rates",
	} {
		plan := decomposeQuery(t, g, "USE continental united", q)
		if plan.CoordinatorDB != "united" {
			t.Fatalf("%s: coordinator = %s, estimates %v", q, plan.CoordinatorDB, plan.Estimates)
		}
		if len(plan.Ships) != 1 || plan.Ships[0].Table != "mtmp_continental" {
			t.Fatalf("%s: ships = %+v", q, plan.Ships)
		}
	}
	// A selective local predicate shrinks a group's estimate: 5000/10 on
	// united against 1000 on continental.
	setTable(t, g, "continental", "flights", 1000)
	plan := decomposeQuery(t, g, "USE continental united",
		"SELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE u.day = 'mon' AND c.rate < u.rates")
	if plan.CoordinatorDB != "continental" {
		t.Fatalf("coordinator = %s, estimates %v", plan.CoordinatorDB, plan.Estimates)
	}
}

// TestDecomposeKeyPinnedGroupLoses: equalities that pin a table's whole
// primary key size its group at one row, below an equal-count group
// filtered by an ordinary equality.
func TestDecomposeKeyPinnedGroupLoses(t *testing.T) {
	g := paperGDD(t)
	const q = "SELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.flnu = 100 AND u.day = 'mon' AND c.rate < u.rates"
	setTable(t, g, "continental", "flights", 1000)
	setTable(t, g, "united", "flight", 1000)
	if plan := decomposeQuery(t, g, "USE continental united", q); plan.CoordinatorDB != "continental" {
		t.Fatalf("without a key: coordinator = %s, estimates %v (a tie keeps FROM order)", plan.CoordinatorDB, plan.Estimates)
	}
	setTable(t, g, "continental", "flights", 1000, "flnu")
	plan := decomposeQuery(t, g, "USE continental united", q)
	if plan.CoordinatorDB != "united" || plan.Estimates[0].Rows != 1 {
		t.Fatalf("key-pinned: coordinator = %s, estimates %v", plan.CoordinatorDB, plan.Estimates)
	}
}

// TestDecomposeTiesKeepFromOrder: unknown counts and equal predicates
// plan as before estimates existed — the first FROM database coordinates.
func TestDecomposeTiesKeepFromOrder(t *testing.T) {
	g := paperGDD(t)
	for q, want := range map[string]string{
		"SELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.day = 'mon' AND u.day = 'tue'": "continental",
		"SELECT c.flnu, u.fn FROM united.flight u, continental.flights c WHERE c.day = 'mon' AND u.day = 'tue'": "united",
	} {
		if plan := decomposeQuery(t, g, "USE continental united", q); plan.CoordinatorDB != want {
			t.Fatalf("%s: coordinator = %s, want %s", q, plan.CoordinatorDB, want)
		}
	}
}

// TestDecomposeShippedNamesQualified: Q' mixes shipped columns with the
// coordinator's own, so a coordinator column literally named like a
// shipped one (u_fn) must not capture the reference.
func TestDecomposeShippedNamesQualified(t *testing.T) {
	g := paperGDD(t)
	def, _ := g.Table("continental", "flights")
	def.Columns = append(def.Columns, schema.Column{Name: "u_fn", Type: sqlval.KindInt})
	if err := g.PutTable("continental", *def); err != nil {
		t.Fatal(err)
	}
	plan := decomposeQuery(t, g, "USE continental united",
		"SELECT c.u_fn, u.fn FROM continental.flights c, united.flight u WHERE c.u_fn = u.fn")
	if plan.CoordinatorDB != "continental" {
		t.Fatalf("coordinator = %s", plan.CoordinatorDB)
	}
	want := "SELECT c.u_fn AS u_fn, mtmp_united.u_fn AS fn FROM mtmp_united, flights c WHERE c.u_fn = mtmp_united.u_fn"
	if got := plan.FinalSQL(); got != want {
		t.Fatalf("final:\n got  %s\n want %s", got, want)
	}
}

func TestDecomposeAggregatesStayGlobal(t *testing.T) {
	g := paperGDD(t)
	el := expandOne(t, g, "USE continental united",
		`SELECT c.source, COUNT(c.flnu) AS n FROM continental.flights c, united.flight u
		 WHERE c.day = u.day GROUP BY c.source ORDER BY n DESC`)
	plan, err := Decompose(g, el)
	if err != nil {
		t.Fatal(err)
	}
	final := plan.FinalSQL()
	if !strings.Contains(final, "GROUP BY c.source") || !strings.Contains(final, "COUNT(c.flnu)") {
		t.Errorf("final = %s", final)
	}
	for _, sq := range plan.Subqueries {
		if strings.Contains(sq.SQL(), "COUNT") {
			t.Errorf("aggregate leaked into local subquery: %s", sq.SQL())
		}
	}
}

func TestDecomposeInsertTransfer(t *testing.T) {
	g := paperGDD(t)
	el := expandOne(t, g, "USE avis national",
		"INSERT INTO avis.cars (code, cartype) SELECT v.vcode, v.vty FROM national.vehicle v WHERE v.vstat = 'FREE'")
	plan, err := Decompose(g, el)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Subqueries) != 1 || plan.Subqueries[0].Database != "national" {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.CoordinatorDB != "avis" {
		t.Fatalf("coordinator = %s", plan.CoordinatorDB)
	}
	if !strings.Contains(plan.Subqueries[0].SQL(), "FROM vehicle v WHERE v.vstat = 'FREE'") {
		t.Errorf("source subquery = %s", plan.Subqueries[0].SQL())
	}
	final := plan.FinalSQL()
	want := "INSERT INTO cars (code, cartype) SELECT code, cartype FROM mtmp_xfer"
	if final != want {
		t.Errorf("final:\n got  %s\n want %s", final, want)
	}
	if len(plan.Ships) != 1 || plan.Ships[0].Table != "mtmp_xfer" || len(plan.Ships[0].Columns) != 2 {
		t.Fatalf("ships = %+v", plan.Ships)
	}
}

func TestDecomposeInsertSameDB(t *testing.T) {
	g := paperGDD(t)
	el := expandOne(t, g, "USE avis national",
		"INSERT INTO avis.cars (code) SELECT c.code FROM avis.cars c WHERE c.carst = 'sold'")
	plan, err := Decompose(g, el)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Subqueries) != 1 || plan.Final != nil {
		t.Fatalf("plan = %+v", plan)
	}
	if plan.Subqueries[0].Database != "avis" {
		t.Fatalf("db = %s", plan.Subqueries[0].Database)
	}
}

func TestDecomposeUnsupportedShapes(t *testing.T) {
	g := paperGDD(t)

	// SELECT * across databases.
	el := expandOne(t, g, "USE continental united",
		"SELECT c.flnu, u.fn FROM continental.flights c, united.flight u")
	sel := el.Stmt.(*sqlparser.SelectStmt)
	sel.Items = []sqlparser.SelectItem{{Star: true}}
	if _, err := Decompose(g, el); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("star err = %v", err)
	}

	// Global SELECT with a subquery.
	el2 := semvar.Elementary{Global: true}
	stmt, _ := sqlparser.ParseStatement(
		"SELECT c.flnu FROM continental.flights c WHERE c.rate = (SELECT MIN(c2.rate) FROM continental.flights c2)")
	el2.Stmt = stmt
	if _, err := Decompose(g, el2); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("subquery err = %v", err)
	}

	// UNION branches reading different databases, as a SELECT and as the
	// source of an INSERT: only the first branch's FROM would be grouped.
	// A DML statement pushed to its target's site may name no other
	// database in any block, an IN subquery included.
	for _, q := range []string{
		"SELECT c.flnu FROM continental.flights c UNION SELECT u.fn FROM united.flight u",
		"INSERT INTO avis.cars (code) SELECT c.flnu FROM continental.flights c UNION SELECT u.fn FROM united.flight u",
		"UPDATE continental.flights SET rate = 1 WHERE flnu IN (SELECT u.fn FROM united.flight u)",
	} {
		el := expandOne(t, g, "USE continental united avis", q)
		if _, err := Decompose(g, el); !errors.Is(err, ErrUnsupported) {
			t.Fatalf("%s: err = %v, want ErrUnsupported", q, err)
		}
	}
}

func TestDecomposeDiversePredicates(t *testing.T) {
	g := paperGDD(t)
	el := expandOne(t, g, "USE continental united",
		`SELECT c.flnu, u.fn FROM continental.flights c, united.flight u
		 WHERE c.rate BETWEEN 50 AND 150 AND u.day LIKE 'm%'
		   AND c.day IN ('mon', 'tue') AND u.dest IS NOT NULL
		   AND NOT (c.flnu = 0) AND c.day = u.day`)
	plan, err := Decompose(g, el)
	if err != nil {
		t.Fatal(err)
	}
	// continental's range, IN and NOT (1/3 x 1/2 x 1/2) filter harder
	// than united's LIKE and IS NOT NULL (1/2 x 1/2), so united
	// coordinates: continental's predicates run at continental, united's
	// are folded into Q'.
	if plan.CoordinatorDB != "united" || len(plan.Subqueries) != 1 {
		t.Fatalf("coordinator = %s, estimates %v", plan.CoordinatorDB, plan.Estimates)
	}
	contSQL := plan.Subqueries[0].SQL()
	for _, want := range []string{"BETWEEN 50 AND 150", "IN ('mon', 'tue')", "NOT (c.flnu = 0)"} {
		if !strings.Contains(contSQL, want) {
			t.Errorf("continental predicate missing %q: %s", want, contSQL)
		}
	}
	final := plan.FinalSQL()
	for _, want := range []string{"LIKE 'm%'", "IS NOT NULL", "mtmp_continental.c_day = u.day"} {
		if !strings.Contains(final, want) {
			t.Errorf("Q' is missing %q: %s", want, final)
		}
	}
}

func TestDecomposePureCrossJoinShipsConstant(t *testing.T) {
	g := paperGDD(t)
	el := expandOne(t, g, "USE continental united",
		"SELECT c.flnu FROM continental.flights c, united.flight u")
	plan, err := Decompose(g, el)
	if err != nil {
		t.Fatal(err)
	}
	// united contributes only cardinality.
	found := false
	for _, sq := range plan.Subqueries {
		if sq.Database == "united" && strings.Contains(sq.SQL(), "one_united") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected constant column for united: %+v", plan.Subqueries)
	}
}
