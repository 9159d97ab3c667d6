package sqlparser

import (
	"strings"
	"testing"
	"testing/quick"

	"msql/internal/sqlval"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	s, err := ParseStatement(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return s
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("SELECT %code, type, ~rate FROM car WHERE status = 'available'")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tk := range toks {
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "%code", ",", "type", ",", "~", "rate", "FROM", "car", "WHERE", "status", "=", "available"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Fatalf("tokens = %v, want %v", texts, want)
	}
}

func TestLexerMultipleIdentifierForms(t *testing.T) {
	toks, err := Tokenize("flight% rate% sour% %code fl%ght")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 5 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
	for _, tk := range toks {
		if tk.Kind != TokIdent {
			t.Errorf("token %q should be an identifier", tk.Text)
		}
	}
}

func TestLexerStringEscapes(t *testing.T) {
	toks, err := Tokenize("'O''Hare' 'San Antonio'")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "O'Hare" || toks[1].Text != "San Antonio" {
		t.Fatalf("strings = %q, %q", toks[0].Text, toks[1].Text)
	}
}

func TestLexerUnterminatedString(t *testing.T) {
	if _, err := Tokenize("'oops"); err == nil {
		t.Fatal("want error for unterminated string")
	}
}

func TestLexerComments(t *testing.T) {
	toks, err := Tokenize("SELECT -- line comment\n a /* block\ncomment */ FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 4 {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestLexerNumbers(t *testing.T) {
	toks, err := Tokenize("1.1 42 0.5 7")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1.1", "42", "0.5", "7"}
	for i, w := range want {
		if toks[i].Kind != TokNumber || toks[i].Text != w {
			t.Errorf("token %d = %v, want number %q", i, toks[i], w)
		}
	}
}

func TestLexerExponents(t *testing.T) {
	toks, err := Tokenize("1e-05 1e+21 2.5E7 .5e3 5e-324 1e 2e+ 3e-x")
	if err != nil {
		t.Fatal(err)
	}
	// An 'e' with no digits behind it is not an exponent: it starts the
	// next token, as it did before the lexer knew exponents.
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokNumber, "1e-05"}, {TokNumber, "1e+21"}, {TokNumber, "2.5E7"}, {TokNumber, ".5e3"}, {TokNumber, "5e-324"},
		{TokNumber, "1"}, {TokIdent, "e"},
		{TokNumber, "2"}, {TokIdent, "e"}, {TokPunct, "+"},
		{TokNumber, "3"}, {TokIdent, "e"}, {TokPunct, "-"}, {TokIdent, "x"},
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v (kind %d), want %q (kind %d)", i, toks[i], toks[i].Kind, w.text, w.kind)
		}
	}
}

// fixpointFloats are floats on both sides of sqlval's switch between
// plain and exponent form, and at the edges of float64.
var fixpointFloats = []float64{1e-5, 0.00001, 1e21, 5e-324, 1.7976931348623157e308, -2.5e-7, 1e20, 0.0001, 132.5}

// floatUpdate is UPDATE t SET x = f.
func floatUpdate(f float64) *UpdateStmt {
	return &UpdateStmt{
		Table:   Name("t"),
		Assigns: []Assign{{Column: ColRef{Parts: []string{"x"}}, Expr: &Literal{Val: sqlval.Float(f)}}},
	}
}

// TestFloatLiteralFixpoint: sqlval prints floats below 1e-4 and from 1e21
// in exponent form, the engine deparses every task body and both
// journals replay deparsed SQL, so whatever Deparse prints for a float
// the parser has to read back as the same number.
func TestFloatLiteralFixpoint(t *testing.T) {
	for _, f := range fixpointFloats {
		out1 := Deparse(floatUpdate(f))
		s2, err := ParseStatement(out1)
		if err != nil {
			t.Errorf("%g: reparse of %q: %v", f, out1, err)
			continue
		}
		if out2 := Deparse(s2); out2 != out1 {
			t.Errorf("%g: deparse not stable: %q then %q", f, out1, out2)
		}
		// The value survives, not just the text. A negative literal comes
		// back as a negation of the positive one.
		e := s2.(*UpdateStmt).Assigns[0].Expr
		got, neg := 0.0, false
		if u, ok := e.(*UnaryExpr); ok && u.Op == "-" {
			e, neg = u.X, true
		}
		lit, ok := e.(*Literal)
		if !ok {
			t.Errorf("%g: %q parsed to %T", f, out1, e)
			continue
		}
		got, _ = lit.Val.AsFloat()
		if neg {
			got = -got
		}
		if got != f {
			t.Errorf("%g: %q read back as %v", f, out1, got)
		}
	}
	// The statement from the bug report, text first.
	out := Deparse(mustParse(t, "UPDATE t SET x = 0.00001"))
	if _, err := ParseStatement(out); err != nil {
		t.Errorf("reparse of %q: %v", out, err)
	}
}

func TestParsePaperMultipleSelect(t *testing.T) {
	// The Section 2 example body.
	s := mustParse(t, "SELECT %code, type, ~rate FROM car WHERE status = 'available'")
	sel := s.(*SelectStmt)
	if len(sel.Items) != 3 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	c0 := sel.Items[0].Expr.(ColRef)
	if c0.Name() != "%code" || !c0.IsMultiple() {
		t.Fatalf("item0 = %+v", c0)
	}
	c2 := sel.Items[2].Expr.(ColRef)
	if !c2.Optional || c2.Name() != "rate" {
		t.Fatalf("item2 = %+v", c2)
	}
	if sel.From[0].Name.String() != "car" {
		t.Fatalf("from = %v", sel.From)
	}
	be := sel.Where.(*BinaryExpr)
	if be.Op != "=" {
		t.Fatalf("where op = %s", be.Op)
	}
}

func TestParsePaperFareUpdate(t *testing.T) {
	s := mustParse(t, `UPDATE flight% SET rate% = rate% * 1.1
		WHERE sour% = 'Houston' AND dest% = 'San Antonio'`)
	u := s.(*UpdateStmt)
	if u.Table.String() != "flight%" || !u.Table.IsMultiple() {
		t.Fatalf("table = %v", u.Table)
	}
	if len(u.Assigns) != 1 || u.Assigns[0].Column.Name() != "rate%" {
		t.Fatalf("assigns = %+v", u.Assigns)
	}
	mult := u.Assigns[0].Expr.(*BinaryExpr)
	if mult.Op != "*" {
		t.Fatalf("set op = %s", mult.Op)
	}
	and := u.Where.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("where = %+v", and)
	}
}

func TestParseScalarSubquery(t *testing.T) {
	// The travel-agent reservation pattern.
	s := mustParse(t, `UPDATE fitab SET sstat = 'TAKEN', clname = 'wenders'
		WHERE snu = (SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE')`)
	u := s.(*UpdateStmt)
	if len(u.Assigns) != 2 {
		t.Fatalf("assigns = %d", len(u.Assigns))
	}
	eq := u.Where.(*BinaryExpr)
	sub, ok := eq.R.(*SubqueryExpr)
	if !ok {
		t.Fatalf("rhs = %T", eq.R)
	}
	agg := sub.Query.Items[0].Expr.(*FuncCall)
	if agg.Name != "MIN" {
		t.Fatalf("agg = %s", agg.Name)
	}
}

func TestParseSelectFull(t *testing.T) {
	s := mustParse(t, `SELECT DISTINCT f.source, COUNT(*) AS n, AVG(rate) r
		FROM flights f, f838 s
		WHERE f.rate > 100 AND s.seatstatus <> 'FREE'
		GROUP BY f.source HAVING COUNT(*) > 2
		ORDER BY n DESC, f.source LIMIT 10`)
	sel := s.(*SelectStmt)
	if !sel.Distinct || len(sel.Items) != 3 || len(sel.From) != 2 {
		t.Fatalf("parsed = %+v", sel)
	}
	if sel.Items[1].Alias != "n" || sel.Items[2].Alias != "r" {
		t.Fatalf("aliases = %q %q", sel.Items[1].Alias, sel.Items[2].Alias)
	}
	if sel.From[0].Alias != "f" || sel.From[1].Alias != "s" {
		t.Fatalf("from aliases = %+v", sel.From)
	}
	if len(sel.GroupBy) != 1 || sel.Having == nil {
		t.Fatal("missing group/having")
	}
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Fatalf("order = %+v", sel.OrderBy)
	}
	if sel.Limit != 10 {
		t.Fatalf("limit = %d", sel.Limit)
	}
}

func TestParseStarForms(t *testing.T) {
	s := mustParse(t, "SELECT *, f.* FROM flights f")
	sel := s.(*SelectStmt)
	if !sel.Items[0].Star || sel.Items[0].Qualifier != "" {
		t.Fatalf("item0 = %+v", sel.Items[0])
	}
	if !sel.Items[1].Star || sel.Items[1].Qualifier != "f" {
		t.Fatalf("item1 = %+v", sel.Items[1])
	}
}

func TestParseInsertForms(t *testing.T) {
	s := mustParse(t, "INSERT INTO cars (code, cartype, rate) VALUES (1, 'suv', 49.5), (2, 'compact', NULL)")
	ins := s.(*InsertStmt)
	if len(ins.Columns) != 3 || len(ins.Rows) != 2 {
		t.Fatalf("insert = %+v", ins)
	}
	if lit := ins.Rows[1][2].(*Literal); !lit.Val.IsNull() {
		t.Fatal("expected NULL literal")
	}

	s = mustParse(t, "INSERT INTO t2 SELECT a, b FROM t1 WHERE a > 0")
	ins = s.(*InsertStmt)
	if ins.Query == nil {
		t.Fatal("expected INSERT...SELECT")
	}
}

func TestParseDelete(t *testing.T) {
	s := mustParse(t, "DELETE FROM cars WHERE carst = 'RETIRED'")
	del := s.(*DeleteStmt)
	if del.Table.String() != "cars" || del.Where == nil {
		t.Fatalf("delete = %+v", del)
	}
	s = mustParse(t, "DELETE FROM cars")
	if s.(*DeleteStmt).Where != nil {
		t.Fatal("expected nil where")
	}
}

func TestParseDDL(t *testing.T) {
	s := mustParse(t, "CREATE TABLE flights (flnu INTEGER, source CHAR(20), rate FLOAT, ok BOOLEAN)")
	ct := s.(*CreateTableStmt)
	if len(ct.Columns) != 4 {
		t.Fatalf("cols = %+v", ct.Columns)
	}
	if ct.Columns[1].Type != sqlval.KindString || ct.Columns[1].Width != 20 {
		t.Fatalf("col1 = %+v", ct.Columns[1])
	}
	if ct.Columns[3].Type != sqlval.KindBool {
		t.Fatalf("col3 = %+v", ct.Columns[3])
	}

	if ct.Temporary {
		t.Fatal("CREATE TABLE parsed as temporary")
	}
	s = mustParse(t, "create temporary table db.mtmp_x (x_a INTEGER, x_b CHAR(8))")
	ct = s.(*CreateTableStmt)
	if !ct.Temporary || ct.Table.String() != "db.mtmp_x" || len(ct.Columns) != 2 {
		t.Fatalf("temporary create = %+v", ct)
	}
	if got, want := Deparse(ct), "CREATE TEMPORARY TABLE db.mtmp_x (x_a INTEGER, x_b CHAR(8))"; got != want {
		t.Fatalf("deparse = %q, want %q", got, want)
	}
	for _, bad := range []string{"CREATE TEMPORARY t (a INTEGER)", "CREATE TEMPORARY VIEW v AS SELECT a FROM t", "CREATE TEMPORARY DATABASE d"} {
		if _, err := ParseStatement(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}

	mustParse(t, "CREATE DATABASE avis")
	mustParse(t, "DROP DATABASE avis")
	mustParse(t, "DROP TABLE IF EXISTS flights")
	mustParse(t, "CREATE VIEW v AS SELECT a FROM t")
	mustParse(t, "DROP VIEW v")
	mustParse(t, "BEGIN")
	mustParse(t, "COMMIT WORK")
	mustParse(t, "ROLLBACK")
}

func TestParsePrimaryKey(t *testing.T) {
	// Column-level form.
	s := mustParse(t, "CREATE TABLE t (a INTEGER PRIMARY KEY, b CHAR(10))")
	ct := s.(*CreateTableStmt)
	if !ct.Columns[0].Key || ct.Columns[1].Key {
		t.Fatalf("column-level keys = %+v", ct.Columns)
	}

	// Table-level form, composite, declaration order independent.
	s = mustParse(t, "CREATE TABLE t (a INTEGER, b CHAR(5), c FLOAT, PRIMARY KEY (c, a))")
	ct = s.(*CreateTableStmt)
	if !ct.Columns[0].Key || ct.Columns[1].Key || !ct.Columns[2].Key {
		t.Fatalf("table-level keys = %+v", ct.Columns)
	}

	// Both forms deparse to the canonical table-level clause and
	// round-trip.
	for _, src := range []string{
		"CREATE TABLE t (a INTEGER PRIMARY KEY, b CHAR(10))",
		"CREATE TABLE t (a INTEGER, b CHAR(5), PRIMARY KEY (a, b))",
	} {
		out := Deparse(mustParse(t, src))
		again, err := ParseStatement(out)
		if err != nil {
			t.Fatalf("reparse %q: %v", out, err)
		}
		a, b := mustParse(t, src).(*CreateTableStmt), again.(*CreateTableStmt)
		for i := range a.Columns {
			if a.Columns[i].Key != b.Columns[i].Key {
				t.Fatalf("%q: key flags lost through deparse %q", src, out)
			}
		}
	}

	// Unknown column in the table-level clause is an error.
	if _, err := ParseStatement("CREATE TABLE t (a INTEGER, PRIMARY KEY (zz))"); err == nil {
		t.Fatal("PRIMARY KEY over unknown column parsed")
	}
}

func TestParseNumericWidthScale(t *testing.T) {
	s := mustParse(t, "CREATE TABLE t (x NUMERIC(10, 2))")
	ct := s.(*CreateTableStmt)
	if ct.Columns[0].Type != sqlval.KindFloat || ct.Columns[0].Width != 10 {
		t.Fatalf("col = %+v", ct.Columns[0])
	}
}

func TestParsePredicates(t *testing.T) {
	s := mustParse(t, `SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN (SELECT b FROM u)
		AND c BETWEEN 1 AND 10 AND d IS NOT NULL AND e LIKE 'H%' AND NOT (f = 1 OR g = 2)`)
	sel := s.(*SelectStmt)
	n := 0
	WalkExprs(sel, func(e Expr) {
		switch e.(type) {
		case *InExpr, *BetweenExpr, *IsNullExpr, *LikeExpr:
			n++
		}
	})
	if n != 5 {
		t.Fatalf("predicate count = %d, want 5", n)
	}
}

func TestParsePrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a + b * c - d FROM t")
	e := s.(*SelectStmt).Items[0].Expr
	// ((a + (b*c)) - d)
	sub := e.(*BinaryExpr)
	if sub.Op != "-" {
		t.Fatalf("top = %s", sub.Op)
	}
	add := sub.L.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("left = %s", add.Op)
	}
	mul := add.R.(*BinaryExpr)
	if mul.Op != "*" {
		t.Fatalf("inner = %s", mul.Op)
	}
}

func TestParseBooleanPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
	or := s.(*SelectStmt).Where.(*BinaryExpr)
	if or.Op != "OR" {
		t.Fatalf("top = %s", or.Op)
	}
	and := or.R.(*BinaryExpr)
	if and.Op != "AND" {
		t.Fatalf("right = %s", and.Op)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELEKT a FROM t",
		"SELECT FROM t",
		"INSERT INTO t",
		"UPDATE t SET",
		"CREATE TABLE t (a BLOB)",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t LIMIT x",
		"DELETE cars",
		"SELECT (a FROM t",
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q) succeeded, want error", src)
		}
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript("CREATE DATABASE d; SELECT a FROM t; ; UPDATE t SET a = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("stmts = %d", len(stmts))
	}
}

// roundTripSources cover every statement kind and the operator
// precedences Deparse has to parenthesize.
var roundTripSources = []string{
	"SELECT %code, type, ~rate FROM car WHERE status = 'available'",
	"UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston' AND dest% = 'San Antonio'",
	"SELECT DISTINCT a, COUNT(*) AS n FROM t, u WHERE t.x = u.y GROUP BY a HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5",
	"INSERT INTO t (a, b) VALUES (1, 'x''y'), (NULL, 2.5)",
	"INSERT INTO t SELECT a FROM u WHERE a IN (1, 2)",
	"DELETE FROM t WHERE a BETWEEN 1 AND 2 OR b IS NULL",
	"CREATE TABLE t (a INTEGER, b CHAR(10), c FLOAT)",
	"CREATE TEMPORARY TABLE mtmp_u (u_fn INTEGER, u_sour CHAR(20), PRIMARY KEY (u_fn))",
	"CREATE VIEW v AS SELECT a FROM t",
	"SELECT a FROM t WHERE NOT (a = 1) AND b LIKE 'x%'",
	"SELECT a - (b + c) FROM t",
	"SELECT (a + b) * c FROM t",
	"UPDATE fitab SET sstat = 'TAKEN' WHERE snu = (SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE')",
}

func TestDeparseRoundTrip(t *testing.T) {
	for _, src := range roundTripSources {
		s1 := mustParse(t, src)
		out1 := Deparse(s1)
		s2, err := ParseStatement(out1)
		if err != nil {
			t.Fatalf("reparse of %q -> %q failed: %v", src, out1, err)
		}
		out2 := Deparse(s2)
		if out1 != out2 {
			t.Errorf("deparse not stable:\n  src  %q\n  out1 %q\n  out2 %q", src, out1, out2)
		}
	}
}

func TestObjectNameHelpers(t *testing.T) {
	n := Name("avis", "cars")
	if n.String() != "avis.cars" || n.Last() != "cars" || n.IsMultiple() {
		t.Fatalf("name = %+v", n)
	}
	m := Name("flight%")
	if !m.IsMultiple() {
		t.Fatal("flight% must be multiple")
	}
	var empty ObjectName
	if empty.Last() != "" {
		t.Fatal("empty name Last() should be empty")
	}
}

// Property: deparse→parse→deparse is a fixpoint for generated simple
// SELECTs over random identifiers and integer literals.
func TestQuickDeparseFixpoint(t *testing.T) {
	ident := func(seed uint32) string {
		letters := "abcdefgh"
		n := 1 + int(seed%5)
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(letters[int(seed>>(i*3))%len(letters)])
		}
		return b.String()
	}
	f := func(colSeed, tblSeed uint32, lit int32) bool {
		src := "SELECT " + ident(colSeed) + " FROM " + ident(tblSeed) +
			" WHERE " + ident(colSeed) + " = " + strings.TrimSpace(sqlval.Int(int64(lit)).String())
		s1, err := ParseStatement(src)
		if err != nil {
			return false
		}
		out1 := Deparse(s1)
		s2, err := ParseStatement(out1)
		if err != nil {
			return false
		}
		return Deparse(s2) == out1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDeparseKeepsGrouping: parentheses the grammar needs survive a
// deparse, so shipped and journaled SQL means what the tree means.
func TestDeparseKeepsGrouping(t *testing.T) {
	for src, want := range map[string]string{
		"SELECT a - (b + c) FROM t":                 "SELECT a - (b + c) FROM t",
		"SELECT a / (b * c) FROM t":                 "SELECT a / (b * c) FROM t",
		"SELECT a FROM t WHERE (a = 1) = b":         "SELECT a FROM t WHERE (a = 1) = b",
		"SELECT - (-a) FROM t":                      "SELECT -(-a) FROM t",
		"SELECT a FROM t WHERE (a IN (1)) LIKE 'x'": "SELECT a FROM t WHERE (a IN (1)) LIKE 'x'",
	} {
		if got := Deparse(mustParse(t, src)); got != want {
			t.Errorf("Deparse(%q) = %q, want %q", src, got, want)
		}
	}
}
