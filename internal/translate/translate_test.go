package translate

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"msql/internal/catalog"
	"msql/internal/dol"
	"msql/internal/msqlparser"
	"msql/internal/schema"
	"msql/internal/semvar"
	"msql/internal/sqlval"
)

// paperContext builds AD+GDD for the appendix databases. Continental can
// optionally be registered on an autocommit-only service for the §3.3
// scenarios.
func paperContext(t testing.TB, continentalAutoCommit bool) *Context {
	t.Helper()
	ad := catalog.NewAD()
	ad.Incorporate(catalog.ServiceEntry{Name: "svc_cont", Site: "site1", Connect: true, AutoCommitOnly: continentalAutoCommit})
	ad.Incorporate(catalog.ServiceEntry{Name: "svc_delta", Site: "site2", Connect: true})
	ad.Incorporate(catalog.ServiceEntry{Name: "svc_unit", Site: "site3", Connect: true})
	ad.Incorporate(catalog.ServiceEntry{Name: "svc_avis", Site: "site4", Connect: true})
	ad.Incorporate(catalog.ServiceEntry{Name: "svc_natl", Site: "site5", Connect: true})

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
	put("continental", "svc_cont", "flights", "flnu", "source", "dep", "destination", "arr", "day", "rate")
	put("continental", "svc_cont", "f838", "seatnu", "seatty", "seatstatus", "clientname")
	put("delta", "svc_delta", "flight", "fnu", "source", "dest", "dep", "arr", "day", "rate")
	put("delta", "svc_delta", "fnu747", "snu", "sty", "sstat", "passname")
	put("united", "svc_unit", "flight", "fn", "sour", "dest", "depa", "arri", "day", "rates")
	put("avis", "svc_avis", "cars", "code", "cartype", "rate", "carst", "client")
	put("national", "svc_natl", "vehicle", "vcode", "vty", "vstat", "client")
	return &Context{AD: ad, GDD: g}
}

func scopeOf(t *testing.T, src string) []semvar.ScopeEntry {
	t.Helper()
	st, err := msqlparser.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	return semvar.ScopeFromUse(st.(*msqlparser.UseStmt))
}

func queryOf(t *testing.T, src string) *msqlparser.QueryStmt {
	t.Helper()
	st, err := msqlparser.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*msqlparser.QueryStmt)
}

const fareUpdate = `UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'`

// The E5 experiment: the §3.2 update translates into a DOL program with
// the paper's structure (Section 4.3 listing).
func TestTranslatePaperProgramStructure(t *testing.T) {
	c := paperContext(t, false)
	scope := scopeOf(t, "USE continental VITAL delta united VITAL")
	prog, meta, err := c.TranslateUnit(scope, []UnitQuery{{Query: queryOf(t, fareUpdate)}}, SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	out := dol.Print(prog)

	// The paper's plan: three OPENs, vital tasks NOCOMMIT, the delta task
	// autocommitting, the (T1=P) AND (T3=P) condition, commit/abort with
	// matching DOLSTATUS codes, and a final CLOSE.
	for _, want := range []string{
		"OPEN continental AT site1 AS continental;",
		"OPEN delta AT site2 AS delta;",
		"OPEN united AT site3 AS united;",
		"TASK T1 NOCOMMIT FOR continental",
		"TASK T2 FOR delta",
		"TASK T3 NOCOMMIT FOR united",
		"IF (T1=P) AND (T3=P) THEN",
		"COMMIT T1, T3;",
		"DOLSTATUS=0;",
		"ABORT T1, T3;",
		"DOLSTATUS=1;",
		"CLOSE continental delta united;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("program missing %q:\n%s", want, out)
		}
	}
	// Task bodies carry the per-dialect substituted updates.
	for _, want := range []string{
		"UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston' AND destination = 'San Antonio'",
		"UPDATE flight SET rate = rate * 1.1 WHERE source = 'Houston' AND dest = 'San Antonio'",
		"UPDATE flight SET rates = rates * 1.1 WHERE sour = 'Houston' AND dest = 'San Antonio'",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("program missing body %q:\n%s", want, out)
		}
	}
	if len(meta.VitalNames) != 2 {
		t.Fatalf("vital names = %v", meta.VitalNames)
	}
	for i, entry := range []string{"continental", "delta", "united"} {
		if tm := meta.Tasks[i]; tm.Name != fmt.Sprintf("T%d", i+1) || tm.Entry.Name != entry {
			t.Fatalf("task mapping: %+v", meta.Tasks)
		}
	}
	// The printed program reparses.
	if _, err := dol.Parse(out); err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
}

// §3.3: continental without 2PC and a COMP clause.
func TestTranslateCompensation(t *testing.T) {
	c := paperContext(t, true)
	scope := scopeOf(t, "USE continental VITAL delta united VITAL")
	q := queryOf(t, fareUpdate+`
COMP continental
UPDATE flights SET rate = rate / 1.1
WHERE source = 'Houston' AND destination = 'San Antonio'`)
	prog, meta, err := c.TranslateUnit(scope, []UnitQuery{{Query: q}}, SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	out := dol.Print(prog)
	for _, want := range []string{
		"TASK T1 FOR continental", // autocommits: no NOCOMMIT
		"TASK T3 NOCOMMIT FOR united",
		"IF (T1=C) AND (T3=P) THEN",
		"COMMIT T3;",
		"ABORT T3;",
		"IF (T1=C) THEN", // compensate only when continental committed
		"UPDATE flights SET rate = rate / 1.1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("program missing %q:\n%s", want, out)
		}
	}
	var compTasks int
	for _, tm := range meta.Tasks {
		if tm.Role == RoleComp {
			compTasks++
			if tm.For != "T1" {
				t.Errorf("%s compensates %q, want T1", tm.Name, tm.For)
			}
		}
	}
	if compTasks != 1 {
		t.Fatalf("comp tasks = %d", compTasks)
	}
	if _, err := dol.Parse(out); err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
}

func TestTranslateVitalWithoutTwoPCRefused(t *testing.T) {
	c := paperContext(t, true)
	scope := scopeOf(t, "USE continental VITAL delta united VITAL")
	_, _, err := c.TranslateUnit(scope, []UnitQuery{{Query: queryOf(t, fareUpdate)}}, SyncCommit)
	if !errors.Is(err, ErrVitalNeedsComp) {
		t.Fatalf("err = %v", err)
	}
}

func TestTranslateNoVitalAlwaysSucceeds(t *testing.T) {
	c := paperContext(t, false)
	scope := scopeOf(t, "USE continental delta united")
	prog, _, err := c.TranslateUnit(scope, []UnitQuery{{Query: queryOf(t, fareUpdate)}}, SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	out := dol.Print(prog)
	if strings.Contains(out, "NOCOMMIT") || strings.Contains(out, "IF") {
		t.Fatalf("no-vital plan should have no 2PC machinery:\n%s", out)
	}
	if !strings.Contains(out, "DOLSTATUS=0;") {
		t.Fatalf("missing unconditional success:\n%s", out)
	}
}

func TestTranslateRollbackMode(t *testing.T) {
	c := paperContext(t, false)
	scope := scopeOf(t, "USE continental VITAL united VITAL")
	prog, _, err := c.TranslateUnit(scope, []UnitQuery{{Query: queryOf(t, fareUpdate)}}, SyncRollback)
	if err != nil {
		t.Fatal(err)
	}
	out := dol.Print(prog)
	if !strings.Contains(out, "ABORT T1, T2;") {
		t.Fatalf("rollback plan must abort vitals:\n%s", out)
	}
	if strings.Contains(out, "COMMIT T") {
		t.Fatalf("rollback plan must not commit:\n%s", out)
	}
	if !strings.Contains(out, "DOLSTATUS=1;") {
		t.Fatalf("missing aborted status:\n%s", out)
	}
}

func TestTranslateSelectFanOut(t *testing.T) {
	c := paperContext(t, false)
	scope := scopeOf(t, "USE avis national")
	letStmt, err := msqlparser.ParseStatement("LET car.type.status BE cars.cartype.carst vehicle.vty.vstat")
	if err != nil {
		t.Fatal(err)
	}
	lets := letStmt.(*msqlparser.LetStmt).Bindings
	q := queryOf(t, "SELECT %code, type, ~rate FROM car WHERE status = 'available'")
	prog, meta, err := c.TranslateQuery(scope, lets, q)
	if err != nil {
		t.Fatal(err)
	}
	out := dol.Print(prog)
	for _, want := range []string{
		"OPEN avis AT site4 AS avis;",
		"OPEN national AT site5 AS national;",
		"SELECT code, cartype, rate FROM cars WHERE carst = 'available'",
		"SELECT vcode, vty, NULL FROM vehicle WHERE vstat = 'available'",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if len(meta.Tasks) != 2 || meta.Tasks[0].Role != RoleRead {
		t.Fatalf("tasks = %+v", meta.Tasks)
	}
}

func TestTranslateGlobalSelect(t *testing.T) {
	c := paperContext(t, false)
	scope := scopeOf(t, "USE continental united")
	q := queryOf(t, `SELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.rate > u.rates`)
	prog, meta, err := c.TranslateQuery(scope, nil, q)
	if err != nil {
		t.Fatal(err)
	}
	// No row counts in this GDD and no local predicates: the groups tie
	// and continental, first in FROM, coordinates without shipping its
	// own rows to itself.
	out := dol.Print(prog)
	for _, want := range []string{
		"SHIP T1 TO continental TABLE mtmp_united",
		"TASK T2 AFTER T1 FOR continental",
		"SELECT c.flnu AS flnu, mtmp_united.u_fn AS fn FROM mtmp_united, flights c WHERE c.rate > mtmp_united.u_rates",
		"DROP TABLE mtmp_united",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "mtmp_continental") {
		t.Errorf("the coordinator's group is shipped to itself:\n%s", out)
	}
	if meta.FinalTask == "" || meta.FinalLabel != "continental" || len(meta.Estimates) != 2 {
		t.Fatalf("final task %q label %q estimates %v", meta.FinalTask, meta.FinalLabel, meta.Estimates)
	}
	if _, err := dol.Parse(out); err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
}

func TestTranslateMultiTx(t *testing.T) {
	c := paperContext(t, false)
	src := `
BEGIN MULTITRANSACTION
  USE continental delta
  LET fitab.snu.sstat.clname BE
      f838.seatnu.seatstatus.clientname
      fnu747.snu.sstat.passname
  UPDATE fitab
  SET sstat = 'TAKEN', clname = 'wenders'
  WHERE snu = ( SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE');
  USE avis national
  LET cartab.ccode.cstat BE
      cars.code.carst
      vehicle.vcode.vstat
  UPDATE cartab
  SET cstat = 'TAKEN', client = 'wenders'
  WHERE ccode = ( SELECT MIN(ccode) FROM cartab WHERE cstat = 'FREE');
  COMMIT
    continental AND national
    delta AND avis
END MULTITRANSACTION`
	st, err := msqlparser.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, meta, err := c.TranslateMultiTx(st.(*msqlparser.MultiTxStmt))
	if err != nil {
		t.Fatal(err)
	}
	out := dol.Print(prog)
	for _, want := range []string{
		"TASK T1 NOCOMMIT FOR continental",
		"TASK T2 NOCOMMIT FOR delta",
		"TASK T3 NOCOMMIT FOR avis",
		"TASK T4 NOCOMMIT FOR national",
		"IF (T1=P) AND (T4=P) THEN", // preferred: continental AND national
		"COMMIT T1, T4;",
		"ABORT T2, T3;",
		"DOLSTATUS=0;",
		"IF (T2=P) AND (T3=P) THEN", // fallback: delta AND avis
		"COMMIT T2, T3;",
		"ABORT T1, T4;",
		"DOLSTATUS=1;",
		"ABORT T1, T2, T3, T4;", // failure block
		"DOLSTATUS=2;",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if meta.FailStatus != 2 || len(meta.AcceptableStates) != 2 {
		t.Fatalf("meta = %+v", meta)
	}
	if _, err := dol.Parse(out); err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
}

func TestTranslateMultiTxErrors(t *testing.T) {
	c := paperContext(t, false)
	parse := func(src string) *msqlparser.MultiTxStmt {
		st, err := msqlparser.ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		return st.(*msqlparser.MultiTxStmt)
	}
	// Unknown database in acceptable state.
	_, _, err := c.TranslateMultiTx(parse(`
BEGIN MULTITRANSACTION
USE avis
UPDATE cars SET carst = 'TAKEN'
COMMIT bogus
END MULTITRANSACTION`))
	if !errors.Is(err, ErrBadState) {
		t.Fatalf("err = %v", err)
	}
	// A database used by two queries.
	_, _, err = c.TranslateMultiTx(parse(`
BEGIN MULTITRANSACTION
USE avis
UPDATE cars SET carst = 'TAKEN'
UPDATE cars SET carst = 'FREE'
COMMIT avis
END MULTITRANSACTION`))
	if !errors.Is(err, ErrDuplicateDB) {
		t.Fatalf("err = %v", err)
	}
	// Query without scope.
	_, _, err = c.TranslateMultiTx(parse(`
BEGIN MULTITRANSACTION
UPDATE cars SET carst = 'TAKEN'
COMMIT avis
END MULTITRANSACTION`))
	if !errors.Is(err, ErrNoScope) {
		t.Fatalf("err = %v", err)
	}
}

func TestTranslateMultiTxWithCompensation(t *testing.T) {
	// avis on an autocommit-only service inside a multitransaction.
	c := paperContext(t, false)
	c.AD.Incorporate(catalog.ServiceEntry{Name: "svc_avis", Site: "site4", Connect: true, AutoCommitOnly: true})
	src := `
BEGIN MULTITRANSACTION
USE avis national
UPDATE cars SET carst = 'TAKEN'
COMP avis UPDATE cars SET carst = 'FREE'
COMMIT avis
END MULTITRANSACTION`
	st, err := msqlparser.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := c.TranslateMultiTx(st.(*msqlparser.MultiTxStmt))
	if err != nil {
		t.Fatal(err)
	}
	out := dol.Print(prog)
	if !strings.Contains(out, "IF (T1=C) THEN") {
		t.Fatalf("state condition should test committed for autocommit service:\n%s", out)
	}
	if !strings.Contains(out, "UPDATE cars SET carst = 'FREE'") {
		t.Fatalf("missing compensation body:\n%s", out)
	}
}

func TestTranslateAmbiguousDMLRefused(t *testing.T) {
	c := paperContext(t, false)
	scope := scopeOf(t, "USE continental")
	// d% matches day/dep/destination -> ambiguous multiple update.
	q := queryOf(t, "UPDATE flights SET d% = 'x'")
	_, _, err := c.TranslateUnit(scope, []UnitQuery{{Query: q}}, SyncCommit)
	if !errors.Is(err, ErrAmbiguousDML) {
		t.Fatalf("err = %v", err)
	}
}

func TestTranslateUnitMultipleStatementsChainOnConnection(t *testing.T) {
	c := paperContext(t, false)
	scope := scopeOf(t, "USE avis VITAL")
	u1 := UnitQuery{Query: queryOf(t, "UPDATE cars SET carst = 'TAKEN' WHERE code = 1")}
	u2 := UnitQuery{Query: queryOf(t, "UPDATE cars SET client = 'wenders' WHERE code = 1")}
	prog, _, err := c.TranslateUnit(scope, []UnitQuery{u1, u2}, SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	out := dol.Print(prog)
	if !strings.Contains(out, "TASK T2 NOCOMMIT AFTER T1 FOR avis") {
		t.Fatalf("second statement should chain after the first:\n%s", out)
	}
	if !strings.Contains(out, "IF (T1=P) AND (T2=P) THEN") {
		t.Fatalf("both statements join the vital condition:\n%s", out)
	}
}

func TestTranslateVitalDDLOnAutocommitDDLService(t *testing.T) {
	c := paperContext(t, false)
	// Record united's service as autocommitting CREATE, per INCORPORATE.
	c.AD.Incorporate(catalog.ServiceEntry{
		Name: "svc_unit", Site: "site3", Connect: true,
		DDLCommit: map[string]bool{"CREATE": true},
	})
	scope := scopeOf(t, "USE united VITAL")
	// VITAL CREATE without COMP: refused, the prepared state cannot
	// cover an autocommitted DDL.
	q := queryOf(t, "CREATE TABLE side (a INTEGER)")
	_, _, err := c.TranslateUnit(scope, []UnitQuery{{Query: q}}, SyncCommit)
	if !errors.Is(err, ErrVitalNeedsComp) {
		t.Fatalf("err = %v", err)
	}
	// With COMP: the task autocommits and the plan compensates on abort.
	q2 := queryOf(t, "CREATE TABLE side (a INTEGER) COMP united DROP TABLE side")
	prog, _, err := c.TranslateUnit(scope, []UnitQuery{{Query: q2}}, SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	out := dol.Print(prog)
	if strings.Contains(out, "NOCOMMIT") {
		t.Fatalf("autocommitted DDL must not be NOCOMMIT:\n%s", out)
	}
	if !strings.Contains(out, "IF (T1=C) THEN") || !strings.Contains(out, "DROP TABLE side") {
		t.Fatalf("missing compensation path:\n%s", out)
	}
	// A VITAL UPDATE on the same service still uses the prepared state:
	// only the recorded DDL classes autocommit.
	q3 := queryOf(t, "UPDATE flight SET rates = rates + 1")
	prog, _, err = c.TranslateUnit(scope, []UnitQuery{{Query: q3}}, SyncCommit)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dol.Print(prog), "TASK T1 NOCOMMIT FOR united") {
		t.Fatalf("UPDATE should stay NOCOMMIT:\n%s", dol.Print(prog))
	}
}

func TestTranslateEmptyScope(t *testing.T) {
	c := paperContext(t, false)
	if _, _, err := c.TranslateUnit(nil, nil, SyncCommit); !errors.Is(err, ErrNoScope) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.TranslateQuery(nil, nil, queryOf(t, "SELECT code FROM cars")); !errors.Is(err, ErrNoScope) {
		t.Fatalf("err = %v", err)
	}
}
