package msqlparser

import (
	"fmt"
	"testing"

	"msql/internal/sqlparser"
)

func mustParse(t *testing.T, src string) *Script {
	t.Helper()
	s, err := Parse(src)
	if err != nil {
		t.Fatalf("parse failed: %v\nsource:\n%s", err, src)
	}
	return s
}

// The Section 2 example: resolving naming and schema heterogeneity.
const section2Query = `
USE avis national
LET car.type.status BE cars.cartype.carst
                       vehicle.vty.vstat
SELECT %code, type, ~rate
FROM car
WHERE status = 'available'
`

func TestParseSection2Example(t *testing.T) {
	s := mustParse(t, section2Query)
	if len(s.Stmts) != 3 {
		t.Fatalf("stmts = %d", len(s.Stmts))
	}
	use := s.Stmts[0].(*UseStmt)
	if len(use.Entries) != 2 || use.Entries[0].Database != "avis" || use.Entries[1].Database != "national" {
		t.Fatalf("use = %+v", use)
	}
	if use.Entries[0].Vital || use.Entries[1].Vital {
		t.Fatal("no VITAL in the section 2 example")
	}
	let := s.Stmts[1].(*LetStmt)
	if len(let.Bindings) != 1 {
		t.Fatalf("bindings = %+v", let.Bindings)
	}
	b := let.Bindings[0]
	if len(b.Var) != 3 || b.Var[0] != "car" || b.Var[2] != "status" {
		t.Fatalf("var = %v", b.Var)
	}
	if len(b.Designators) != 2 || b.Designators[0].Parts[0].Name != "cars" || b.Designators[1].Parts[2].Name != "vstat" {
		t.Fatalf("designators = %v", b.Designators)
	}
	q := s.Stmts[2].(*QueryStmt)
	sel := q.Body.(*sqlparser.SelectStmt)
	if len(sel.Items) != 3 {
		t.Fatalf("items = %d", len(sel.Items))
	}
	if cr := sel.Items[0].Expr.(sqlparser.ColRef); cr.Name() != "%code" {
		t.Fatalf("item0 = %v", cr)
	}
	if cr := sel.Items[2].Expr.(sqlparser.ColRef); !cr.Optional {
		t.Fatalf("item2 not optional: %v", cr)
	}
}

// The Section 3.2 example with VITAL designators.
const section32Query = `
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND
      dest% = 'San Antonio'
`

func TestParseSection32VitalUpdate(t *testing.T) {
	s := mustParse(t, section32Query)
	use := s.Stmts[0].(*UseStmt)
	if len(use.Entries) != 3 {
		t.Fatalf("entries = %+v", use.Entries)
	}
	wantVital := []bool{true, false, true}
	for i, e := range use.Entries {
		if e.Vital != wantVital[i] {
			t.Fatalf("entry %d vital = %v", i, e.Vital)
		}
	}
	vs := use.VitalSet()
	if len(vs) != 2 || vs[0] != "continental" || vs[1] != "united" {
		t.Fatalf("vital set = %v", vs)
	}
	q := s.Stmts[1].(*QueryStmt)
	upd := q.Body.(*sqlparser.UpdateStmt)
	if upd.Table.String() != "flight%" {
		t.Fatalf("table = %v", upd.Table)
	}
}

// The Section 3.3 example with a COMP clause.
const section33Query = `
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND
      dest% = 'San Antonio'
COMP continental
  UPDATE flights
  SET rate = rate / 1.1
  WHERE source = 'Houston' AND
        destination = 'San Antonio'
`

func TestParseSection33Compensation(t *testing.T) {
	s := mustParse(t, section33Query)
	q := s.Stmts[1].(*QueryStmt)
	if len(q.Comps) != 1 {
		t.Fatalf("comps = %+v", q.Comps)
	}
	c := q.Comps[0]
	if c.Database != "continental" {
		t.Fatalf("comp db = %s", c.Database)
	}
	upd := c.Body.(*sqlparser.UpdateStmt)
	if upd.Table.String() != "flights" {
		t.Fatalf("comp table = %v", upd.Table)
	}
	div := upd.Assigns[0].Expr.(*sqlparser.BinaryExpr)
	if div.Op != "/" {
		t.Fatalf("comp op = %s", div.Op)
	}
}

// The Section 3.4 travel-agent multitransaction, verbatim structure.
const section34MultiTx = `
BEGIN MULTITRANSACTION
  USE continental delta
  LET fitab.snu.sstat.clname BE
      f838.seatnu.seatstatus.clientname
      f747.snu.sstat.passname
  UPDATE fitab
  SET sstat = 'TAKEN', clname = 'wenders'
  WHERE snu = ( SELECT MIN(snu)
                FROM fitab
                WHERE sstat = 'FREE');
  USE avis national
  LET cartab.ccode.cstat BE
      cars.code.carst
      vehicle.vcode.vstat
  UPDATE cartab
  SET cstat = 'TAKEN', client = 'wenders'
  WHERE ccode = ( SELECT MIN(ccode)
                  FROM cartab
                  WHERE cstat = 'FREE');
  COMMIT
    continental AND national
    delta AND avis
END MULTITRANSACTION
`

func TestParseSection34MultiTransaction(t *testing.T) {
	s := mustParse(t, section34MultiTx)
	if len(s.Stmts) != 1 {
		t.Fatalf("stmts = %d", len(s.Stmts))
	}
	m := s.Stmts[0].(*MultiTxStmt)
	if len(m.Body) != 6 {
		t.Fatalf("body stmts = %d", len(m.Body))
	}
	if len(m.AcceptableStates) != 2 {
		t.Fatalf("states = %v", m.AcceptableStates)
	}
	if m.AcceptableStates[0][0] != "continental" || m.AcceptableStates[0][1] != "national" {
		t.Fatalf("state0 = %v", m.AcceptableStates[0])
	}
	if m.AcceptableStates[1][0] != "delta" || m.AcceptableStates[1][1] != "avis" {
		t.Fatalf("state1 = %v", m.AcceptableStates[1])
	}
	// The second USE inside the body.
	use2 := m.Body[3].(*UseStmt)
	if use2.Entries[0].Database != "avis" {
		t.Fatalf("use2 = %+v", use2)
	}
}

func TestParseIncorporate(t *testing.T) {
	s := mustParse(t, `
INCORPORATE SERVICE oracle1 SITE '127.0.0.1:9001'
  CONNECTMODE CONNECT
  COMMITMODE NOCOMMIT
  CREATE NOCOMMIT
  INSERT NOCOMMIT
  DROP NOCOMMIT
`)
	inc := s.Stmts[0].(*IncorporateStmt)
	if inc.Service != "oracle1" || inc.Site != "127.0.0.1:9001" {
		t.Fatalf("inc = %+v", inc)
	}
	if !inc.Connect || inc.AutoCommitOnly {
		t.Fatalf("modes = %+v", inc)
	}
	for _, class := range []string{"CREATE", "INSERT", "DROP"} {
		if v, ok := inc.DDLCommit[class]; !ok || v {
			t.Fatalf("DDLCommit[%s] = %v, %v", class, v, ok)
		}
	}
}

func TestParseIncorporateAutoCommitNoSite(t *testing.T) {
	s := mustParse(t, "INCORPORATE SERVICE legacy CONNECTMODE NOCONNECT COMMITMODE COMMIT")
	inc := s.Stmts[0].(*IncorporateStmt)
	if inc.Connect || !inc.AutoCommitOnly || inc.Site != "" {
		t.Fatalf("inc = %+v", inc)
	}
}

func TestParseImportVariants(t *testing.T) {
	s := mustParse(t, `
IMPORT DATABASE avis FROM SERVICE oracle1;
IMPORT DATABASE avis FROM SERVICE oracle1 TABLE cars;
IMPORT DATABASE avis FROM SERVICE oracle1 TABLE cars COLUMN code rate;
IMPORT DATABASE avis FROM SERVICE oracle1 VIEW available;
`)
	if len(s.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(s.Stmts))
	}
	i0 := s.Stmts[0].(*ImportStmt)
	if i0.Database != "avis" || i0.Service != "oracle1" || i0.Table != "" {
		t.Fatalf("i0 = %+v", i0)
	}
	i2 := s.Stmts[2].(*ImportStmt)
	if i2.Table != "cars" || len(i2.Columns) != 2 || i2.Columns[1] != "rate" {
		t.Fatalf("i2 = %+v", i2)
	}
	i3 := s.Stmts[3].(*ImportStmt)
	if i3.View != "available" {
		t.Fatalf("i3 = %+v", i3)
	}
}

func TestParseUseWithAliases(t *testing.T) {
	s := mustParse(t, "USE (continental c) VITAL (delta d) united")
	use := s.Stmts[0].(*UseStmt)
	if len(use.Entries) != 3 {
		t.Fatalf("entries = %+v", use.Entries)
	}
	if use.Entries[0].Alias != "c" || !use.Entries[0].Vital {
		t.Fatalf("entry0 = %+v", use.Entries[0])
	}
	if use.Entries[0].Name() != "c" || use.Entries[2].Name() != "united" {
		t.Fatalf("names = %s, %s", use.Entries[0].Name(), use.Entries[2].Name())
	}
}

func TestParseUseCurrent(t *testing.T) {
	s := mustParse(t, "USE CURRENT avis")
	use := s.Stmts[0].(*UseStmt)
	if !use.Current || use.Entries[0].Database != "avis" {
		t.Fatalf("use = %+v", use)
	}
}

func TestParseGlobalCommitRollback(t *testing.T) {
	s := mustParse(t, "USE avis\nUPDATE cars SET rate = 1\nCOMMIT\nROLLBACK")
	if len(s.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(s.Stmts))
	}
	if _, ok := s.Stmts[2].(*CommitStmt); !ok {
		t.Fatalf("stmt2 = %T", s.Stmts[2])
	}
	if _, ok := s.Stmts[3].(*RollbackStmt); !ok {
		t.Fatalf("stmt3 = %T", s.Stmts[3])
	}
}

func TestParseMultipleLetBindings(t *testing.T) {
	s := mustParse(t, "LET a.b BE x.y z.w, c.d BE u.v")
	let := s.Stmts[0].(*LetStmt)
	if len(let.Bindings) != 2 {
		t.Fatalf("bindings = %+v", let.Bindings)
	}
	if len(let.Bindings[0].Designators) != 2 || len(let.Bindings[1].Designators) != 1 {
		t.Fatalf("designators = %+v", let.Bindings)
	}
}

func TestParseMultipleComps(t *testing.T) {
	s := mustParse(t, `
USE a VITAL b VITAL
UPDATE t% SET x% = 1
COMP a UPDATE t SET x = 0
COMP b UPDATE tt SET xx = 0
`)
	q := s.Stmts[1].(*QueryStmt)
	if len(q.Comps) != 2 || q.Comps[1].Database != "b" {
		t.Fatalf("comps = %+v", q.Comps)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"USE",
		"LET a.b",
		"LET a.b BE",
		"BEGIN TRANSACTION",
		"BEGIN MULTITRANSACTION USE a UPDATE t SET x = 1",            // unterminated
		"BEGIN MULTITRANSACTION COMMIT END MULTITRANSACTION",         // no states
		"INCORPORATE SERVICE s CONNECTMODE WRONG COMMITMODE COMMIT",  // bad connectmode
		"INCORPORATE SERVICE s CONNECTMODE CONNECT COMMITMODE MAYBE", // bad commitmode
		"INCORPORATE SERVICE s CONNECTMODE CONNECT COMMITMODE COMMIT CREATE SOMETIMES",
		"IMPORT DATABASE d FROM SERVICE s TABLE t COLUMN",
		"IMPORT TABLE t",
		"SELEKT things",
		"BEGIN MULTITRANSACTION BEGIN MULTITRANSACTION COMMIT a END MULTITRANSACTION COMMIT a END MULTITRANSACTION",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseStatementSingle(t *testing.T) {
	st, err := ParseStatement("USE avis national")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*UseStmt); !ok {
		t.Fatalf("stmt = %T", st)
	}
	if _, err := ParseStatement("USE avis; USE national"); err == nil {
		t.Fatal("trailing statement should error")
	}
}

func TestParseScriptSequence(t *testing.T) {
	s := mustParse(t, `
INCORPORATE SERVICE svc1 CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE avis FROM SERVICE svc1;
USE avis;
SELECT code FROM cars;
`)
	if len(s.Stmts) != 4 {
		t.Fatalf("stmts = %d", len(s.Stmts))
	}
}

func TestParseExplain(t *testing.T) {
	s := mustParse(t, `EXPLAIN SELECT %code FROM car`)
	ex, ok := s.Stmts[0].(*ExplainStmt)
	if !ok {
		t.Fatalf("stmt is %T, want *ExplainStmt", s.Stmts[0])
	}
	if ex.Analyze || ex.JSON {
		t.Fatalf("plain EXPLAIN parsed with analyze=%v json=%v", ex.Analyze, ex.JSON)
	}
	if ex.Query == nil || ex.Query.Body == nil {
		t.Fatal("EXPLAIN lost its query")
	}

	s = mustParse(t, `EXPLAIN ANALYZE FORMAT JSON SELECT f.flnu FROM continental.flights f WHERE f.rate < 100`)
	ex = s.Stmts[0].(*ExplainStmt)
	if !ex.Analyze || !ex.JSON {
		t.Fatalf("flags lost: analyze=%v json=%v", ex.Analyze, ex.JSON)
	}
	sel, ok := ex.Query.Body.(*sqlparser.SelectStmt)
	if !ok {
		t.Fatalf("target is %T, want *SelectStmt", ex.Query.Body)
	}
	if len(sel.From) != 1 || sel.From[0].Alias != "f" {
		t.Fatalf("target select mangled: %+v", sel.From)
	}

	// EXPLAIN keeps the enclosing scope like any query statement.
	s = mustParse(t, "USE avis national\nEXPLAIN ANALYZE SELECT %code FROM car")
	if _, ok := s.Stmts[1].(*ExplainStmt); !ok {
		t.Fatalf("stmt after USE is %T, want *ExplainStmt", s.Stmts[1])
	}

	// UPDATE and DELETE targets share the SELECT planner at the sites.
	for src, want := range map[string]string{
		`EXPLAIN ANALYZE UPDATE car% SET rate% = rate% * 1.1 WHERE code% = 7`: "*sqlparser.UpdateStmt",
		`EXPLAIN DELETE FROM car WHERE code = 7`:                              "*sqlparser.DeleteStmt",
	} {
		ex = mustParse(t, src).Stmts[0].(*ExplainStmt)
		if got := fmt.Sprintf("%T", ex.Query.Body); got != want {
			t.Fatalf("%s: target is %s, want %s", src, got, want)
		}
	}
	if _, err := Parse(`EXPLAIN INSERT INTO car VALUES (1)`); err == nil {
		t.Fatal("EXPLAIN of an INSERT must not parse")
	}
	if _, err := Parse(`EXPLAIN FORMAT XML SELECT a FROM t`); err == nil {
		t.Fatal("EXPLAIN FORMAT XML must not parse")
	}
}
