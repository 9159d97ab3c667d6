package core

import (
	"strings"
	"testing"

	"msql/internal/ldbms"
)

// --- Multidatabases (virtual databases, §2) ---

func TestMultidatabaseInUse(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
CREATE MULTIDATABASE airlines (continental, delta, united);
USE airlines
SELECT day FROM flight%
`)
	if err != nil {
		t.Fatal(err)
	}
	var sel *Result
	for _, r := range results {
		if r.Kind == KindSelect {
			sel = r
		}
	}
	if sel == nil || len(sel.Multitable.Tables) != 3 {
		t.Fatalf("tables = %+v", sel.Multitable)
	}
}

func TestMultidatabaseVitalPropagates(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript("CREATE MULTIDATABASE airlines (continental, united)"); err != nil {
		t.Fatal(err)
	}
	// A failure on united must drag continental down: VITAL applied to
	// every member.
	f.Server("svc_unit").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "united"})
	results, err := f.ExecScript(`
USE airlines VITAL
UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston'
`)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateAborted {
		t.Fatalf("state = %s", sync.State)
	}
	if got := localRate(t, f, "svc_cont", "continental", "SELECT rate FROM flights WHERE flnu = 100"); got != 100 {
		t.Fatalf("rate = %v", got)
	}
}

func TestMultidatabaseErrors(t *testing.T) {
	f := paperFederation(t, false)
	// Unknown member.
	if _, err := f.ExecScript("CREATE MULTIDATABASE m (nodb)"); err == nil {
		t.Fatal("unknown member should fail")
	}
	// Name collision with a database.
	if _, err := f.ExecScript("CREATE MULTIDATABASE avis (national)"); err == nil {
		t.Fatal("name collision should fail")
	}
	// Alias on a multidatabase.
	if _, err := f.ExecScript("CREATE MULTIDATABASE m2 (avis, national)"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExecScript("USE (m2 x)"); err == nil {
		t.Fatal("alias on multidatabase should fail")
	}
	// Drop works; unknown drop fails.
	if _, err := f.ExecScript("DROP MULTIDATABASE m2"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExecScript("DROP MULTIDATABASE m2"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestMultidatabaseMixedScope(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript("CREATE MULTIDATABASE rentals (avis, national)"); err != nil {
		t.Fatal(err)
	}
	results, err := f.ExecScript(`
USE rentals continental
SELECT day FROM flight%
`)
	if err != nil {
		t.Fatal(err)
	}
	sel := results[len(results)-1]
	// flight% matches only continental; avis/national are skipped.
	if len(sel.Multitable.Tables) != 1 || len(sel.Skipped) != 2 {
		t.Fatalf("tables = %d skipped = %d", len(sel.Multitable.Tables), len(sel.Skipped))
	}
}

func TestUseCurrentDeduplicatesScope(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
USE avis
USE CURRENT avis national
SELECT %code FROM car%
`)
	// The duplicate avis entry must collapse: one table for avis, one for
	// national (or a skip), never two avis subqueries.
	if err != nil {
		t.Fatal(err)
	}
	sel := results[len(results)-1]
	avisCount := 0
	for _, tab := range sel.Multitable.Tables {
		if tab.Database == "avis" {
			avisCount++
		}
	}
	if avisCount != 1 {
		t.Fatalf("avis appears %d times", avisCount)
	}
	// A later VITAL strengthens the earlier entry.
	f2 := paperFederation(t, false)
	if _, err := f2.ExecScript("USE avis\nUSE CURRENT avis VITAL"); err != nil {
		t.Fatal(err)
	}
	scope := f2.Scope()
	if len(scope) != 1 || !scope[0].Vital {
		t.Fatalf("scope = %+v", scope)
	}
}

// --- Multidatabase views (§2) ---

func TestMultiviewDefineAndQuery(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
USE avis national
LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
CREATE MULTIVIEW available_cars AS
SELECT %code, type, ~rate FROM car WHERE status = 'available';
USE continental
SELECT * FROM available_cars
`)
	if err != nil {
		t.Fatal(err)
	}
	var sel *Result
	for _, r := range results {
		if r.Kind == KindSelect {
			sel = r
		}
	}
	if sel == nil || len(sel.Multitable.Tables) != 2 {
		t.Fatalf("multiview result = %+v", sel)
	}
	// The view captured avis+national even though the current scope is
	// continental.
	names := []string{sel.Multitable.Tables[0].Database, sel.Multitable.Tables[1].Database}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "avis") || !strings.Contains(joined, "national") {
		t.Fatalf("origins = %v", names)
	}
}

func TestMultiviewSeesCurrentData(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript(`
USE avis national
LET car.status BE cars.carst vehicle.vstat
CREATE MULTIVIEW avail AS SELECT %code FROM car% WHERE status = 'available'
`); err != nil {
		t.Fatal(err)
	}
	before, err := f.ExecScript("SELECT * FROM avail")
	if err != nil {
		t.Fatal(err)
	}
	nBefore := before[len(before)-1].Multitable.TotalRows()
	// Rent out the available avis car; the view must reflect it.
	if _, err := f.ExecScript("USE avis\nUPDATE cars SET carst = 'rented' WHERE code = 1"); err != nil {
		t.Fatal(err)
	}
	after, err := f.ExecScript("USE avis national\nSELECT * FROM avail")
	if err != nil {
		t.Fatal(err)
	}
	nAfter := after[len(after)-1].Multitable.TotalRows()
	if nAfter != nBefore-1 {
		t.Fatalf("rows before=%d after=%d", nBefore, nAfter)
	}
}

// TestMultiviewReportsFailedSubquery: a multiview whose body fails at
// one site must fail the SELECT the way the body run directly does, not
// come back as a silently incomplete multitable.
func TestMultiviewReportsFailedSubquery(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript(`
USE avis national
LET car.status BE cars.carst vehicle.vstat
CREATE MULTIVIEW avail AS SELECT %code FROM car WHERE status = 'available'
`); err != nil {
		t.Fatal(err)
	}
	f.Server("svc_natl").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "national"})
	if _, err := f.ExecScript("SELECT * FROM avail"); err == nil || !strings.Contains(err.Error(), "subquery on national failed") {
		t.Fatalf("err = %v, want the national subquery's failure", err)
	}
}

func TestMultiviewErrors(t *testing.T) {
	f := paperFederation(t, false)
	// Needs scope.
	if _, err := f.ExecScript("CREATE MULTIVIEW v AS SELECT code FROM cars"); err == nil {
		t.Fatal("multiview without scope should fail")
	}
	if _, err := f.ExecScript("DROP MULTIVIEW v"); err == nil {
		t.Fatal("drop of unknown multiview should fail")
	}
	if _, err := f.ExecScript("USE avis\nCREATE MULTIVIEW v AS SELECT code FROM cars"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExecScript("DROP MULTIVIEW v"); err != nil {
		t.Fatal(err)
	}
}

// --- Dynamic value transformation (§2) ---

func TestTransformationVariableEndToEnd(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
USE avis national
LET car.code.weekly BE cars.code.(rate * 7)
                       vehicle.vcode.(0 - 1)
SELECT code, weekly FROM car%
`)
	if err != nil {
		t.Fatal(err)
	}
	var sel *Result
	for _, r := range results {
		if r.Kind == KindSelect {
			sel = r
		}
	}
	// car% matches only avis' cars; weekly = rate * 7.
	if sel == nil || len(sel.Multitable.Tables) != 1 {
		t.Fatalf("result = %+v", sel)
	}
	rows := sel.Multitable.Tables[0].Rows
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		code, _ := r[0].AsInt()
		weekly, _ := r[1].AsFloat()
		if code == 1 && (weekly < 346.4 || weekly > 346.6) { // 49.5 * 7
			t.Fatalf("weekly = %v", weekly)
		}
	}
}

// --- COMMIT EFFECTIVE (extension) ---

func TestCommitEffectiveRejectsVacuousReservation(t *testing.T) {
	// Take the last FREE national vehicle beforehand: the reservation
	// UPDATE then matches zero rows and commits vacuously.
	prep := `
USE national
UPDATE vehicle SET vstat = 'TAKEN' WHERE vstat = 'FREE'
`
	mtx := func(effective string) string {
		return `
BEGIN MULTITRANSACTION
USE national
UPDATE vehicle SET client = 'wenders'
WHERE vcode = (SELECT MIN(vcode) FROM vehicle WHERE vstat = 'FREE')
COMMIT ` + effective + `
national
END MULTITRANSACTION`
	}

	// Without EFFECTIVE: the paper's semantics — the vacuous commit
	// satisfies the state.
	f1 := paperFederation(t, false)
	if _, err := f1.ExecScript(prep); err != nil {
		t.Fatal(err)
	}
	results, err := f1.ExecScript(mtx(""))
	if err != nil {
		t.Fatal(err)
	}
	if results[len(results)-1].AchievedState == nil {
		t.Fatal("plain COMMIT should accept the vacuous reservation")
	}

	// With EFFECTIVE: zero affected rows fail the state; the
	// multitransaction aborts.
	f2 := paperFederation(t, false)
	if _, err := f2.ExecScript(prep); err != nil {
		t.Fatal(err)
	}
	results, err = f2.ExecScript(mtx("EFFECTIVE"))
	if err != nil {
		t.Fatal(err)
	}
	last := results[len(results)-1]
	if last.AchievedState != nil {
		t.Fatalf("EFFECTIVE accepted a vacuous reservation: %v", last.AchievedState)
	}
	if last.Status != 1 { // one state -> fail status is 1
		t.Fatalf("status = %d", last.Status)
	}
}

// --- Interdatabase triggers (§2) ---

func TestTriggerFiresAcrossDatabases(t *testing.T) {
	f := paperFederation(t, false)
	// Audit table at avis; trigger mirrors delta updates into it.
	script := `
USE avis
CREATE TABLE audit (what CHAR(40));
CREATE TRIGGER mirror ON delta AFTER UPDATE EXECUTE
INSERT INTO audit (what) VALUES ('delta updated');
USE delta
UPDATE flight SET rate = rate + 1 WHERE fnu = 200
`
	results, err := f.ExecScript(script)
	if err != nil {
		t.Fatal(err)
	}
	var fired []string
	for _, r := range results {
		fired = append(fired, r.TriggersFired...)
	}
	if len(fired) != 1 || fired[0] != "mirror" {
		t.Fatalf("fired = %v", fired)
	}
	sess, _ := f.Server("svc_avis").OpenSession("avis")
	defer sess.Close()
	res, err := sess.Exec("SELECT COUNT(what) FROM audit")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("audit rows = %v", res.Rows[0][0])
	}
}

func TestTriggerDoesNotFireOnAbort(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript(`
USE avis
CREATE TABLE audit (what CHAR(40));
CREATE TRIGGER mirror ON united AFTER UPDATE EXECUTE
INSERT INTO audit (what) VALUES ('united updated')
`); err != nil {
		t.Fatal(err)
	}
	f.Server("svc_unit").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "united"})
	results, err := f.ExecScript(`
USE united VITAL
UPDATE flight SET rates = rates + 1 WHERE fn = 300
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.TriggersFired) != 0 {
			t.Fatalf("trigger fired on aborted update: %v", r.TriggersFired)
		}
	}
	sess, _ := f.Server("svc_avis").OpenSession("avis")
	defer sess.Close()
	res, _ := sess.Exec("SELECT COUNT(what) FROM audit")
	if n, _ := res.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("audit rows = %v", res.Rows[0][0])
	}
}

func TestTriggerEventFilter(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript(`
USE avis
CREATE TABLE audit (what CHAR(40));
CREATE TRIGGER ondelete ON avis AFTER DELETE EXECUTE
INSERT INTO audit (what) VALUES ('deleted')
`); err != nil {
		t.Fatal(err)
	}
	// An UPDATE must not fire the DELETE trigger.
	results, err := f.ExecScript("USE avis\nUPDATE cars SET rate = rate + 1 WHERE code = 1")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if len(r.TriggersFired) != 0 {
			t.Fatalf("fired = %v", r.TriggersFired)
		}
	}
	// A DELETE does.
	results, err = f.ExecScript("USE avis\nDELETE FROM cars WHERE code = 2")
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for _, r := range results {
		fired += len(r.TriggersFired)
	}
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
}

func TestTriggerNoRecursion(t *testing.T) {
	f := paperFederation(t, false)
	// A trigger on avis INSERT that itself inserts into avis: must fire
	// once, not loop.
	if _, err := f.ExecScript(`
USE avis
CREATE TABLE audit (what CHAR(40));
CREATE TRIGGER selfloop ON avis AFTER INSERT EXECUTE
INSERT INTO audit (what) VALUES ('ins')
`); err != nil {
		t.Fatal(err)
	}
	results, err := f.ExecScript("USE avis\nINSERT INTO cars (code, cartype) VALUES (99, 'test')")
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for _, r := range results {
		fired += len(r.TriggersFired)
	}
	if fired != 1 {
		t.Fatalf("fired = %d (recursion guard broken?)", fired)
	}
	sess, _ := f.Server("svc_avis").OpenSession("avis")
	defer sess.Close()
	res, _ := sess.Exec("SELECT COUNT(what) FROM audit")
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("audit rows = %v", n)
	}
}

func TestTriggerDropAndErrors(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript("CREATE TRIGGER t ON avis AFTER UPDATE EXECUTE UPDATE cars SET rate = 1"); err == nil {
		t.Fatal("trigger without scope should fail")
	}
	if _, err := f.ExecScript("USE avis\nCREATE TRIGGER t ON avis AFTER UPDATE EXECUTE UPDATE cars SET rate = rate"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExecScript("DROP TRIGGER t"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ExecScript("DROP TRIGGER t"); err == nil {
		t.Fatal("double drop should fail")
	}
}
