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
	if len(plan.Subqueries) != 2 || len(plan.Ships) != 2 || plan.Final == nil {
		t.Fatalf("plan shape: %d subqueries, %d ships, final=%v", len(plan.Subqueries), len(plan.Ships), plan.Final)
	}
	if plan.CoordinatorDB != "continental" {
		t.Fatalf("coordinator = %s", plan.CoordinatorDB)
	}
	// Local predicates pushed down.
	contSQL := plan.Subqueries[0].SQL()
	if !strings.Contains(contSQL, "WHERE c.day = 'mon'") {
		t.Errorf("continental subquery lost its local predicate: %s", contSQL)
	}
	if !strings.Contains(contSQL, "c.flnu AS c_flnu") || !strings.Contains(contSQL, "c.rate AS c_rate") {
		t.Errorf("continental subquery projection: %s", contSQL)
	}
	unitSQL := plan.Subqueries[1].SQL()
	if !strings.Contains(unitSQL, "WHERE u.day = 'mon'") {
		t.Errorf("united subquery: %s", unitSQL)
	}
	// The cross predicate moves to Q'.
	final := plan.FinalSQL()
	want := "SELECT c_flnu AS flnu, u_fn AS fn FROM mtmp_continental, mtmp_united WHERE c_rate > u_rates"
	if final != want {
		t.Errorf("final:\n got  %s\n want %s", final, want)
	}
	// Shipped schemas carry the GDD types.
	for _, s := range plan.Ships {
		for _, c := range s.Columns {
			if c.Name == "c_rate" && c.Type != sqlval.KindFloat {
				t.Errorf("c_rate type = %v", c.Type)
			}
			if c.Name == "c_flnu" && c.Type != sqlval.KindInt {
				t.Errorf("c_flnu type = %v", c.Type)
			}
		}
	}
	if len(plan.Cleanup) != 2 {
		t.Fatalf("cleanup = %v", plan.Cleanup)
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
	if !strings.Contains(final, "GROUP BY c_source") || !strings.Contains(final, "COUNT(c_flnu)") {
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
	contSQL := plan.Subqueries[0].SQL()
	for _, want := range []string{"BETWEEN 50 AND 150", "IN ('mon', 'tue')", "NOT (c.flnu = 0)"} {
		if !strings.Contains(contSQL, want) {
			t.Errorf("continental predicate missing %q: %s", want, contSQL)
		}
	}
	unitSQL := plan.Subqueries[1].SQL()
	for _, want := range []string{"LIKE 'm%'", "IS NOT NULL"} {
		if !strings.Contains(unitSQL, want) {
			t.Errorf("united predicate missing %q: %s", want, unitSQL)
		}
	}
	if !strings.Contains(plan.FinalSQL(), "c_day = u_day") {
		t.Errorf("cross predicate not in Q': %s", plan.FinalSQL())
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
