package semvar

import (
	"errors"
	"strings"
	"testing"

	"msql/internal/catalog"
	"msql/internal/msqlparser"
	"msql/internal/schema"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// paperGDD builds the appendix schemas of all five databases.
func paperGDD(t testing.TB) *catalog.GDD {
	t.Helper()
	g := catalog.NewGDD()
	put := func(db, svc, table string, cols ...string) {
		if _, err := g.ServiceOf(db); err != nil {
			g.DefineDatabase(db, svc)
		}
		def := catalog.TableDef{Name: table}
		for _, c := range cols {
			def.Columns = append(def.Columns, schema.Column{Name: c, Type: sqlval.KindString})
		}
		if err := g.PutTable(db, def); err != nil {
			t.Fatal(err)
		}
	}
	put("continental", "svc1", "flights", "flnu", "source", "dep", "destination", "arr", "day", "rate")
	put("continental", "svc1", "f838", "seatnu", "seatty", "seatstatus", "clientname")
	put("delta", "svc2", "flight", "fnu", "source", "dest", "dep", "arr", "day", "rate")
	put("delta", "svc2", "fnu747", "snu", "sty", "sstat", "passname")
	put("united", "svc3", "flight", "fn", "sour", "dest", "depa", "arri", "day", "rates")
	put("united", "svc3", "fn727", "sn", "st", "sst", "pasna")
	put("avis", "svc4", "cars", "code", "cartype", "rate", "carst", "from_d", "to_d", "client")
	put("national", "svc5", "vehicle", "vcode", "vty", "vstat", "from_d", "to_d", "client")
	return g
}

func parseBody(t *testing.T, src string) sqlparser.Statement {
	t.Helper()
	s, err := sqlparser.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func parseUse(t *testing.T, src string) []ScopeEntry {
	t.Helper()
	st, err := msqlparser.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	return ScopeFromUse(st.(*msqlparser.UseStmt))
}

func parseLet(t *testing.T, src string) []msqlparser.LetBinding {
	t.Helper()
	st, err := msqlparser.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*msqlparser.LetStmt).Bindings
}

func deparsed(t *testing.T, r *Result) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, e := range r.Queries {
		key := e.Entry.Name
		if e.Global {
			key = "(global)"
		}
		out[key] = sqlparser.Deparse(e.Stmt)
	}
	return out
}

// The Section 2 example: naming heterogeneity via LET and %code, schema
// heterogeneity via ~rate.
func TestExpandSection2Example(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE avis national")
	lets := parseLet(t, `LET car.type.status BE cars.cartype.carst vehicle.vty.vstat`)
	body := parseBody(t, "SELECT %code, type, ~rate FROM car WHERE status = 'available'")

	res, err := Expand(g, scope, lets, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 2 || len(res.Skipped) != 0 {
		t.Fatalf("queries = %d skipped = %v", len(res.Queries), res.Skipped)
	}
	q := deparsed(t, res)
	wantAvis := "SELECT code, cartype, rate FROM cars WHERE carst = 'available'"
	if q["avis"] != wantAvis {
		t.Errorf("avis:\n got  %s\n want %s", q["avis"], wantAvis)
	}
	// national lacks a rate column: the optional column degrades to NULL.
	wantNational := "SELECT vcode, vty, NULL FROM vehicle WHERE vstat = 'available'"
	if q["national"] != wantNational {
		t.Errorf("national:\n got  %s\n want %s", q["national"], wantNational)
	}
}

// The Section 3.2 multiple update across three airline databases.
func TestExpandSection32Update(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE continental VITAL delta united VITAL")
	body := parseBody(t, `UPDATE flight% SET rate% = rate% * 1.1
		WHERE sour% = 'Houston' AND dest% = 'San Antonio'`)

	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 3 {
		t.Fatalf("queries = %d (%v)", len(res.Queries), res.Skipped)
	}
	q := deparsed(t, res)
	want := map[string]string{
		"continental": "UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston' AND destination = 'San Antonio'",
		"delta":       "UPDATE flight SET rate = rate * 1.1 WHERE source = 'Houston' AND dest = 'San Antonio'",
		"united":      "UPDATE flight SET rates = rates * 1.1 WHERE sour = 'Houston' AND dest = 'San Antonio'",
	}
	for db, w := range want {
		if q[db] != w {
			t.Errorf("%s:\n got  %s\n want %s", db, q[db], w)
		}
	}
	// Vital designators survive into the elementary queries.
	vital := map[string]bool{}
	for _, e := range res.Queries {
		vital[e.Entry.Name] = e.Entry.Vital
	}
	if !vital["continental"] || vital["delta"] || !vital["united"] {
		t.Fatalf("vital = %v", vital)
	}
}

// The travel-agent reservation with a scalar subquery referencing the
// semantic variable inside the nested query.
func TestExpandTravelAgentReservation(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE continental delta")
	lets := parseLet(t, `LET fitab.snu.sstat.clname BE
		f838.seatnu.seatstatus.clientname
		fnu747.snu.sstat.passname`)
	body := parseBody(t, `UPDATE fitab SET sstat = 'TAKEN', clname = 'wenders'
		WHERE snu = (SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE')`)

	res, err := Expand(g, scope, lets, body)
	if err != nil {
		t.Fatal(err)
	}
	q := deparsed(t, res)
	wantCont := "UPDATE f838 SET seatstatus = 'TAKEN', clientname = 'wenders' WHERE seatnu = (SELECT MIN(seatnu) FROM f838 WHERE seatstatus = 'FREE')"
	if q["continental"] != wantCont {
		t.Errorf("continental:\n got  %s\n want %s", q["continental"], wantCont)
	}
	wantDelta := "UPDATE fnu747 SET sstat = 'TAKEN', passname = 'wenders' WHERE snu = (SELECT MIN(snu) FROM fnu747 WHERE sstat = 'FREE')"
	if q["delta"] != wantDelta {
		t.Errorf("delta:\n got  %s\n want %s", q["delta"], wantDelta)
	}
}

// Dynamic transformation of attributes' values (§2): a LET designator
// carries an expression, e.g. converting avis' daily rate to a weekly
// figure while national (which lacks a rate) maps it to NULL elsewhere.
func TestExpandTransformationVariable(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE avis national")
	lets := parseLet(t, `LET car.weekly BE cars.(rate * 7) vehicle.(0)`)
	body := parseBody(t, "SELECT %code, weekly FROM car")
	res, err := Expand(g, scope, lets, body)
	if err != nil {
		t.Fatal(err)
	}
	q := deparsed(t, res)
	if q["avis"] != "SELECT code, rate * 7 FROM cars" {
		t.Errorf("avis: %s", q["avis"])
	}
	if q["national"] != "SELECT vcode, 0 FROM vehicle" {
		t.Errorf("national: %s", q["national"])
	}
}

func TestExpandTransformationInWhere(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE avis")
	lets := parseLet(t, "LET car.usd BE cars.(rate * 2)")
	body := parseBody(t, "SELECT code FROM car WHERE usd > 80")
	res, err := Expand(g, scope, lets, body)
	if err != nil {
		t.Fatal(err)
	}
	out := sqlparser.Deparse(res.Queries[0].Stmt)
	if out != "SELECT code FROM cars WHERE rate * 2 > 80" {
		t.Errorf("got %s", out)
	}
}

func TestExpandTransformationErrors(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE avis")
	// Transformation at table position.
	lets := parseLet(t, "LET car BE (rate)")
	body := parseBody(t, "SELECT code FROM car")
	if _, err := Expand(g, scope, lets, body); !errors.Is(err, ErrBadBinding) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpandSkipsNonPertinent(t *testing.T) {
	g := paperGDD(t)
	// cars% only matches in avis; national is skipped.
	scope := parseUse(t, "USE avis national")
	body := parseBody(t, "SELECT code FROM cars%")
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 1 || res.Queries[0].Entry.Name != "avis" {
		t.Fatalf("queries = %+v", res.Queries)
	}
	if len(res.Skipped) != 1 || res.Skipped[0].Entry.Name != "national" {
		t.Fatalf("skipped = %+v", res.Skipped)
	}
	if !strings.Contains(res.Skipped[0].Reason, "cars%") {
		t.Fatalf("reason = %q", res.Skipped[0].Reason)
	}
}

func TestExpandNoPertinentDatabases(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE avis national")
	body := parseBody(t, "SELECT x FROM nothing%")
	_, err := Expand(g, scope, nil, body)
	if !errors.Is(err, ErrNoQueries) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpandColumnPatternMissingIsSkip(t *testing.T) {
	g := paperGDD(t)
	// seatnu% matches only in continental's f838; delta's fnu747 has snu.
	scope := parseUse(t, "USE continental delta")
	body := parseBody(t, "SELECT seatnu% FROM f%")
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 1 || res.Queries[0].Entry.Name != "continental" {
		t.Fatalf("queries = %+v, skipped = %+v", res.Queries, res.Skipped)
	}
}

func TestExpandAmbiguousPatternEnumerates(t *testing.T) {
	g := paperGDD(t)
	// d% matches dep and destination and day in continental.flights.
	scope := parseUse(t, "USE continental")
	body := parseBody(t, "SELECT d% FROM flights")
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 3 {
		t.Fatalf("expected 3 candidate substitutions, got %d", len(res.Queries))
	}
	var got []string
	for _, e := range res.Queries {
		got = append(got, sqlparser.Deparse(e.Stmt))
	}
	joined := strings.Join(got, "|")
	for _, w := range []string{"SELECT day FROM flights", "SELECT dep FROM flights", "SELECT destination FROM flights"} {
		if !strings.Contains(joined, w) {
			t.Errorf("missing %q in %v", w, got)
		}
	}
}

func TestExpandConsistentSubstitution(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE united")
	// rate% appears twice; both occurrences must pick the same column.
	body := parseBody(t, "UPDATE flight% SET rate% = rate% * 2")
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 1 {
		t.Fatalf("queries = %d", len(res.Queries))
	}
	out := sqlparser.Deparse(res.Queries[0].Stmt)
	if out != "UPDATE flight SET rates = rates * 2" {
		t.Fatalf("got %s", out)
	}
}

func TestExpandQualifiedColumnsAndAliases(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE continental")
	body := parseBody(t, "SELECT f.flnu, s.seatnu FROM flights f, f838 s WHERE f.day = s.seatty")
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	out := sqlparser.Deparse(res.Queries[0].Stmt)
	want := "SELECT f.flnu, s.seatnu FROM flights f, f838 s WHERE f.day = s.seatty"
	if out != want {
		t.Fatalf("got %s, want %s", out, want)
	}
}

func TestExpandGlobalJoin(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE continental united")
	body := parseBody(t, `SELECT c.flnu, u.fn FROM continental.flights c, united.flight u
		WHERE c.rate > u.rates`)
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 1 || !res.Queries[0].Global {
		t.Fatalf("queries = %+v", res.Queries)
	}
	out := sqlparser.Deparse(res.Queries[0].Stmt)
	want := "SELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.rate > u.rates"
	if out != want {
		t.Fatalf("got  %s\nwant %s", out, want)
	}
}

func TestExpandGlobalWithPatternsAndUnqualified(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE continental united")
	// flight% within the united prefix; unqualified seatnu is unique to
	// continental.f838.
	body := parseBody(t, `SELECT seatnu, u.rate% FROM continental.f838 s, united.flight% u`)
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	out := sqlparser.Deparse(res.Queries[0].Stmt)
	want := "SELECT s.seatnu, u.rates FROM continental.f838 s, united.flight u"
	if out != want {
		t.Fatalf("got  %s\nwant %s", out, want)
	}
}

func TestExpandGlobalAmbiguousColumn(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE continental delta")
	// "source" exists in both flights and flight.
	body := parseBody(t, "SELECT source FROM continental.flights, delta.flight")
	_, err := Expand(g, scope, nil, body)
	if !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpandGlobalUnknownQualifier(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE continental delta")
	body := parseBody(t, "SELECT x.flnu FROM continental.flights f")
	_, err := Expand(g, scope, nil, body)
	if !errors.Is(err, ErrUnresolved) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpandGlobalDuplicateUnaliasedTables(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE delta united")
	// Both databases have a table named flight; without aliases the
	// qualifiers collide.
	body := parseBody(t, "SELECT fnu FROM delta.flight, united.flight")
	_, err := Expand(g, scope, nil, body)
	if !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpandGlobalAliasedSameNameTables(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE delta united")
	body := parseBody(t, "SELECT d.fnu, u.fn FROM delta.flight d, united.flight u WHERE d.rate = u.rates")
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	out := sqlparser.Deparse(res.Queries[0].Stmt)
	want := "SELECT d.fnu, u.fn FROM delta.flight d, united.flight u WHERE d.rate = u.rates"
	if out != want {
		t.Fatalf("got  %s\nwant %s", out, want)
	}
}

func TestExpandGlobalThreePartColumnRef(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE continental united")
	body := parseBody(t, `SELECT continental.flights.flnu FROM continental.flights, united.flight u
		WHERE continental.flights.rate < u.rates`)
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	out := sqlparser.Deparse(res.Queries[0].Stmt)
	want := "SELECT flights.flnu FROM continental.flights flights, united.flight u WHERE flights.rate < u.rates"
	if out != want {
		t.Fatalf("got  %s\nwant %s", out, want)
	}
}

func TestExpandGlobalOptionalColumn(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE avis national")
	// vehicle has no rate column; the optional marker degrades to NULL in
	// the global query too.
	body := parseBody(t, "SELECT c.code, ~missing_everywhere FROM avis.cars c")
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	out := sqlparser.Deparse(res.Queries[0].Stmt)
	if out != "SELECT c.code, NULL FROM avis.cars c" {
		t.Fatalf("got %s", out)
	}
}

func TestExpandGlobalUnknownTablePattern(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE continental united")
	body := parseBody(t, "SELECT x.a FROM continental.bogus% x, united.flight u")
	if _, err := Expand(g, scope, nil, body); !errors.Is(err, ErrUnresolved) {
		t.Fatalf("err = %v", err)
	}
	// Pattern matching several tables in one database is ambiguous.
	body = parseBody(t, "SELECT x.flnu FROM continental.f% x, united.flight u")
	if _, err := Expand(g, scope, nil, body); !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpandBadBindings(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE avis")
	body := parseBody(t, "SELECT code FROM cars")
	// More designators than scope databases.
	lets := parseLet(t, "LET a.b BE x.y z.w")
	if _, err := Expand(g, scope, lets, body); !errors.Is(err, ErrBadBinding) {
		t.Fatalf("err = %v", err)
	}
	// Designator path length mismatch.
	lets = parseLet(t, "LET a.b BE x.y.z")
	if _, err := Expand(g, scope, lets, body); !errors.Is(err, ErrBadBinding) {
		t.Fatalf("err = %v", err)
	}
}

func TestExpandEmptyScope(t *testing.T) {
	g := paperGDD(t)
	body := parseBody(t, "SELECT code FROM cars")
	if _, err := Expand(g, nil, nil, body); err == nil {
		t.Fatal("empty scope must error")
	}
}

func TestExpandAliasedScopeEntry(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE (continental c) VITAL")
	body := parseBody(t, "SELECT flnu FROM flights")
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries[0].Entry.Name != "c" || res.Queries[0].Entry.Database != "continental" || !res.Queries[0].Entry.Vital {
		t.Fatalf("entry = %+v", res.Queries[0].Entry)
	}
}

func TestExpandInsertFanOut(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE avis national")
	lets := parseLet(t, "LET cartab.ccode BE cars.code vehicle.vcode")
	body := parseBody(t, "INSERT INTO cartab (ccode) VALUES (99)")
	res, err := Expand(g, scope, lets, body)
	if err != nil {
		t.Fatal(err)
	}
	q := deparsed(t, res)
	if q["avis"] != "INSERT INTO cars (code) VALUES (99)" {
		t.Errorf("avis: %s", q["avis"])
	}
	if q["national"] != "INSERT INTO vehicle (vcode) VALUES (99)" {
		t.Errorf("national: %s", q["national"])
	}
}

func TestExpandDeleteFanOut(t *testing.T) {
	g := paperGDD(t)
	scope := parseUse(t, "USE continental delta united")
	body := parseBody(t, "DELETE FROM flight% WHERE day = 'mon'")
	res, err := Expand(g, scope, nil, body)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Queries) != 3 {
		t.Fatalf("queries = %d", len(res.Queries))
	}
}
