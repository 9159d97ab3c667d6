package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"msql/internal/dol"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/semvar"
	"msql/internal/translate"
)

// E1: the Section 2 multiple query produces a multitable of two tables
// with heterogeneity resolved.
func TestE1MultipleSelect(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
USE avis national
LET car.type.status BE cars.cartype.carst
                       vehicle.vty.vstat
SELECT %code, type, ~rate
FROM car
WHERE status = 'available'
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
	if sel == nil || sel.Multitable == nil {
		t.Fatal("no select result")
	}
	mt := sel.Multitable
	if len(mt.Tables) != 2 {
		t.Fatalf("multitable has %d tables", len(mt.Tables))
	}
	byDB := map[string][][]string{}
	for _, tab := range mt.Tables {
		var rows [][]string
		for _, r := range tab.Rows {
			var cells []string
			for _, v := range r {
				cells = append(cells, v.String())
			}
			rows = append(rows, cells)
		}
		byDB[tab.Database] = rows
	}
	// avis: car 1 (suv, 49.5) is available.
	if len(byDB["avis"]) != 1 || byDB["avis"][0][0] != "1" || byDB["avis"][0][1] != "suv" || byDB["avis"][0][2] != "49.5" {
		t.Fatalf("avis rows = %v", byDB["avis"])
	}
	// national: vehicle 11 (sedan), rate is NULL (schema heterogeneity).
	if len(byDB["national"]) != 1 || byDB["national"][0][0] != "11" || byDB["national"][0][2] != "NULL" {
		t.Fatalf("national rows = %v", byDB["national"])
	}
	// Flattening works.
	flat, err := mt.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if len(flat.Rows) != 2 || flat.Columns[0].Name != "origin" {
		t.Fatalf("flat = %+v", flat)
	}
}

// E2: the Section 3.2 vital update succeeds on the happy path and rolls
// back the whole vital set on failure.
func TestE2VitalUpdateSuccess(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
`)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.Kind != KindSync || sync.State != StateSuccess || sync.Status != translate.StatusSuccess {
		t.Fatalf("sync = %+v", sync)
	}
	if got := localRate(t, f, "svc_cont", "continental", "SELECT rate FROM flights WHERE flnu = 100"); got < 109.9 || got > 110.1 {
		t.Fatalf("continental rate = %v", got)
	}
	if got := localRate(t, f, "svc_unit", "united", "SELECT rates FROM flight WHERE fn = 300"); got < 131.9 || got > 132.1 {
		t.Fatalf("united rate = %v", got)
	}
	if sync.RowsAffected["continental"] != 1 || sync.RowsAffected["united"] != 1 {
		t.Fatalf("rows affected = %v", sync.RowsAffected)
	}
}

func TestE2VitalUpdateFailureAbortsVitalSet(t *testing.T) {
	f := paperFederation(t, false)
	f.Server("svc_unit").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "united"})
	results, err := f.ExecScript(`
USE continental VITAL delta united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
`)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateAborted || sync.Status != translate.StatusAborted {
		t.Fatalf("sync = state %s status %d", sync.State, sync.Status)
	}
	if sync.TaskStates["continental"] != dol.StatusAborted || sync.TaskStates["united"] != dol.StatusAborted {
		t.Fatalf("task states = %v", sync.TaskStates)
	}
	// Vital databases untouched.
	if got := localRate(t, f, "svc_cont", "continental", "SELECT rate FROM flights WHERE flnu = 100"); got != 100 {
		t.Fatalf("continental rate = %v", got)
	}
	// Delta (NON VITAL) committed regardless.
	if sync.TaskStates["delta"] != dol.StatusCommitted {
		t.Fatalf("delta = %s", sync.TaskStates["delta"])
	}
	if got := localRate(t, f, "svc_delta", "delta", "SELECT rate FROM flight WHERE fnu = 200"); got < 120.9 || got > 121.1 {
		t.Fatalf("delta rate = %v (non-vital update must stand)", got)
	}
}

// E3: compensation — all four execution paths of Section 3.3.
const e3Script = `
USE continental VITAL united VITAL
UPDATE flight%
SET rate% = rate% * 1.1
WHERE sour% = 'Houston' AND dest% = 'San Antonio'
COMP continental
UPDATE flights
SET rate = rate / 1.1
WHERE source = 'Houston' AND destination = 'San Antonio'
`

func TestE3PathBothSucceed(t *testing.T) {
	f := paperFederation(t, true) // continental autocommit-only
	results, err := f.ExecScript(e3Script)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateSuccess {
		t.Fatalf("state = %s", sync.State)
	}
	if got := localRate(t, f, "svc_cont", "continental", "SELECT rate FROM flights WHERE flnu = 100"); got < 109.9 || got > 110.1 {
		t.Fatalf("continental rate = %v", got)
	}
}

func TestE3PathContinentalCommittedUnitedAborted(t *testing.T) {
	f := paperFederation(t, true)
	f.Server("svc_unit").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "united"})
	results, err := f.ExecScript(e3Script)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateAborted {
		t.Fatalf("state = %s", sync.State)
	}
	if len(sync.Compensated) != 1 || sync.Compensated[0] != "continental" {
		t.Fatalf("compensated = %v", sync.Compensated)
	}
	// Compensation restored continental's fare.
	if got := localRate(t, f, "svc_cont", "continental", "SELECT rate FROM flights WHERE flnu = 100"); got < 99.99 || got > 100.01 {
		t.Fatalf("continental rate = %v", got)
	}
	if got := localRate(t, f, "svc_unit", "united", "SELECT rates FROM flight WHERE fn = 300"); got != 120 {
		t.Fatalf("united rate = %v", got)
	}
}

// TestCompensatedWriteFiresNoTrigger: continental's UPDATE autocommits
// and its COMP undoes it when united fails, so the unit aborted and the
// trigger on continental's updates must not fire.
func TestCompensatedWriteFiresNoTrigger(t *testing.T) {
	f := paperFederation(t, true)
	if _, err := f.ExecScript(`
USE avis
CREATE TABLE audit (what CHAR(40));
CREATE TRIGGER mirror ON continental AFTER UPDATE EXECUTE
INSERT INTO audit (what) VALUES ('continental updated')
`); err != nil {
		t.Fatal(err)
	}
	f.Server("svc_unit").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "united"})
	results, err := f.ExecScript(e3Script)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateAborted || len(sync.Compensated) != 1 {
		t.Fatalf("state = %s, compensated = %v", sync.State, sync.Compensated)
	}
	if len(sync.TriggersFired) != 0 {
		t.Fatalf("triggers fired on a compensated update: %v", sync.TriggersFired)
	}
	if n := localRate(t, f, "svc_avis", "avis", "SELECT COUNT(what) FROM audit"); n != 0 {
		t.Fatalf("audit rows = %v", n)
	}
}

// TestCompensatingDDLReachesGDD: continental's CREATE TABLE autocommits
// and its COMP drops the table again when delta fails, so the GDD must
// not keep the table either.
func TestCompensatingDDLReachesGDD(t *testing.T) {
	f := paperFederation(t, true)
	f.Server("svc_delta").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "delta"})
	results, err := f.ExecScript(`
USE continental VITAL delta VITAL
CREATE TABLE tmpx (x INTEGER)
COMP continental
DROP TABLE tmpx
`)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateAborted || len(sync.Compensated) != 1 || sync.Compensated[0] != "continental" {
		t.Fatalf("state = %s, compensated = %v", sync.State, sync.Compensated)
	}
	for _, db := range []string{"continental", "delta"} {
		if _, err := f.GDD.Table(db, "tmpx"); err == nil {
			t.Errorf("GDD keeps %s.tmpx, which no site holds", db)
		}
	}
}

func TestE3PathContinentalAbortedUnitedPrepared(t *testing.T) {
	f := paperFederation(t, true)
	f.Server("svc_cont").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "continental"})
	results, err := f.ExecScript(e3Script)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateAborted {
		t.Fatalf("state = %s", sync.State)
	}
	if len(sync.Compensated) != 0 {
		t.Fatalf("nothing to compensate, got %v", sync.Compensated)
	}
	// United rolled back.
	if got := localRate(t, f, "svc_unit", "united", "SELECT rates FROM flight WHERE fn = 300"); got != 120 {
		t.Fatalf("united rate = %v", got)
	}
}

func TestE3PathBothAborted(t *testing.T) {
	f := paperFederation(t, true)
	f.Server("svc_cont").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "continental"})
	f.Server("svc_unit").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "united"})
	results, err := f.ExecScript(e3Script)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateAborted || len(sync.Compensated) != 0 {
		t.Fatalf("sync = %+v", sync)
	}
	if got := localRate(t, f, "svc_cont", "continental", "SELECT rate FROM flights WHERE flnu = 100"); got != 100 {
		t.Fatalf("continental rate = %v", got)
	}
}

func TestVitalWithoutCompRefused(t *testing.T) {
	f := paperFederation(t, true)
	_, err := f.ExecScript(`
USE continental VITAL united VITAL
UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston'
`)
	if !errors.Is(err, translate.ErrVitalNeedsComp) {
		t.Fatalf("err = %v", err)
	}
}

// E4: the travel-agent multitransaction (§3.4).
const e4Script = `
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
END MULTITRANSACTION
`

func TestE4MultiTxPreferredState(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(e4Script)
	if err != nil {
		t.Fatal(err)
	}
	mtx := results[len(results)-1]
	if mtx.Kind != KindMultiTx {
		t.Fatalf("kind = %v", mtx.Kind)
	}
	if mtx.Status != 0 || len(mtx.AchievedState) != 2 {
		t.Fatalf("status = %d achieved = %v", mtx.Status, mtx.AchievedState)
	}
	if mtx.AchievedState[0] != "continental" || mtx.AchievedState[1] != "national" {
		t.Fatalf("achieved = %v", mtx.AchievedState)
	}
	// Continental seat taken, national vehicle taken.
	sess, _ := f.Server("svc_cont").OpenSession("continental")
	res, err := sess.Exec("SELECT clientname FROM f838 WHERE seatnu = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].S != "wenders" {
		t.Fatalf("continental seat client = %v", res.Rows[0][0])
	}
	sess.Close()
	// Delta and avis rolled back: delta seat 1 still FREE.
	sess2, _ := f.Server("svc_delta").OpenSession("delta")
	res, err = sess2.Exec("SELECT sstat FROM fnu747 WHERE snu = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].S != "FREE" {
		t.Fatalf("delta seat = %v (excluded member must roll back)", res.Rows[0][0])
	}
	sess2.Close()
	sess3, _ := f.Server("svc_avis").OpenSession("avis")
	res, err = sess3.Exec("SELECT carst FROM cars WHERE code = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].S != "FREE" {
		t.Fatalf("avis car = %v", res.Rows[0][0])
	}
	sess3.Close()
}

func TestE4MultiTxFallbackState(t *testing.T) {
	f := paperFederation(t, false)
	// Make the preferred state unreachable: national fails.
	f.Server("svc_natl").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "national"})
	results, err := f.ExecScript(e4Script)
	if err != nil {
		t.Fatal(err)
	}
	mtx := results[len(results)-1]
	if mtx.Status != 1 {
		t.Fatalf("status = %d (want fallback state 1)", mtx.Status)
	}
	if len(mtx.AchievedState) != 2 || mtx.AchievedState[0] != "delta" || mtx.AchievedState[1] != "avis" {
		t.Fatalf("achieved = %v", mtx.AchievedState)
	}
	// Delta seat taken, continental rolled back.
	sess, _ := f.Server("svc_delta").OpenSession("delta")
	res, _ := sess.Exec("SELECT sstat FROM fnu747 WHERE snu = 1")
	if res.Rows[0][0].S != "TAKEN" {
		t.Fatalf("delta seat = %v", res.Rows[0][0])
	}
	sess.Close()
	sess2, _ := f.Server("svc_cont").OpenSession("continental")
	res, _ = sess2.Exec("SELECT seatstatus FROM f838 WHERE seatnu = 1")
	if res.Rows[0][0].S != "FREE" {
		t.Fatalf("continental seat = %v", res.Rows[0][0])
	}
	sess2.Close()
}

func TestE4MultiTxTotalFailure(t *testing.T) {
	f := paperFederation(t, false)
	// Both car rental databases fail: neither acceptable state reachable.
	f.Server("svc_natl").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "national"})
	f.Server("svc_avis").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "avis"})
	results, err := f.ExecScript(e4Script)
	if err != nil {
		t.Fatal(err)
	}
	mtx := results[len(results)-1]
	if mtx.Status != 2 || mtx.AchievedState != nil || mtx.State != StateAborted {
		t.Fatalf("mtx = status %d achieved %v state %s", mtx.Status, mtx.AchievedState, mtx.State)
	}
	// Everything rolled back.
	sess, _ := f.Server("svc_cont").OpenSession("continental")
	res, _ := sess.Exec("SELECT seatstatus FROM f838 WHERE seatnu = 1")
	if res.Rows[0][0].S != "FREE" {
		t.Fatalf("continental seat = %v", res.Rows[0][0])
	}
	sess.Close()
}

// TestGlobalCrossDatabaseJoin also watches united's ship into
// continental: the temporary table never shows in continental's table
// list, and once dropped the session that held it no longer sees it.
func TestGlobalCrossDatabaseJoin(t *testing.T) {
	f := paperFederation(t, false)
	watch := &shipWatch{}
	wrapService(t, f, "svc_cont", func(c lam.Client) lam.Client { watch.Client = c; return watch })
	results, err := f.ExecScript(`
USE continental united
SELECT c.flnu, u.fn
FROM continental.flights c, united.flight u
WHERE c.rate < u.rates
`)
	if err != nil {
		t.Fatal(err)
	}
	sel := results[len(results)-1]
	if sel.Multitable == nil || len(sel.Multitable.Tables) != 1 {
		t.Fatalf("multitable = %+v", sel.Multitable)
	}
	rows := sel.Multitable.Tables[0].Rows
	// continental rates 100, 80, 60; united rates 120, 70 -> every
	// flight under 120, and flight 102 under 70 too.
	if len(rows) != 4 {
		t.Fatalf("join rows = %v", rows)
	}
	watch.mu.Lock()
	defer watch.mu.Unlock()
	if watch.loads == 0 || watch.drops != 1 {
		t.Fatalf("%d loads and %d drops at continental, want some and 1", watch.loads, watch.drops)
	}
	if len(watch.listed) > 0 {
		t.Fatalf("continental's tables during the ship: %v", watch.listed)
	}
	if len(watch.seen) > 0 {
		t.Fatal(watch.seen[0])
	}
}

// TestGlobalSelfJoinRefused: a global query naming one table under two
// aliases used to be answered as if both aliases were the first; the
// federation now refuses it and returns no rows.
func TestGlobalSelfJoinRefused(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
USE continental united
SELECT a.flnu, b.flnu
FROM continental.flights a, continental.flights b
WHERE a.rate < b.rate
`)
	if !errors.Is(err, semvar.ErrAmbiguous) {
		t.Fatalf("err = %v, want semvar.ErrAmbiguous", err)
	}
	for _, r := range results {
		if r.Multitable != nil {
			t.Fatalf("a refused query returned rows: %+v", r.Multitable)
		}
	}
}

// TestGlobalCrossDatabaseJoinCSVCoordinator: the group with the most
// rows coordinates — regional's four flights against continental's three
// — so here the temp table, the loaded rows and the final join all live
// on a flat-file autocommit site, whichever way round FROM names them.
// Typed loads reach it through the same storage seam as every other
// engine's.
func TestGlobalCrossDatabaseJoinCSVCoordinator(t *testing.T) {
	f := paperFederation(t, false)
	srv := serveSite(t, f, ldbms.Spec{Service: "svc_csv", Profile: ldbms.ProfileAutoCommitOnly(),
		Backend: ldbms.BackendCSV, Dir: t.TempDir(), DB: "regional", Boot: []string{
			`CREATE TABLE flights (flnu INTEGER, source CHAR(20), rate FLOAT)`,
			`INSERT INTO flights VALUES (900, 'Waco', 40.0), (901, 'Waco', 90.0), (902, 'Tyler', 105.5), (903, 'Tyler', 120.0)`,
		}})
	sess, err := srv.OpenSession("regional")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srv.ResetStats()
	results, err := f.ExecScript(`
INCORPORATE SERVICE svc_csv CONNECTMODE CONNECT COMMITMODE COMMIT;
IMPORT DATABASE regional FROM SERVICE svc_csv;
USE regional continental
SELECT r.flnu, c.flnu, c.rate
FROM regional.flights r, continental.flights c
WHERE r.rate < c.rate
`)
	if err != nil {
		t.Fatal(err)
	}
	sel := results[len(results)-1]
	if sel.Multitable == nil || len(sel.Multitable.Tables) != 1 {
		t.Fatalf("multitable = %+v", sel.Multitable)
	}
	// regional 40, 90, 105.5, 120 against continental 100 (flight 100),
	// 80 (flight 101) and 60 (flight 102): 40 < all three, 90 < 100.
	// regional's four rows outnumber continental's three, so regional
	// coordinates whichever way round FROM names them.
	var got []string
	for _, row := range sel.Multitable.Tables[0].Rows {
		got = append(got, fmt.Sprint(row))
	}
	sort.Strings(got)
	if want := []string{"[900 100 100]", "[900 101 80]", "[900 102 60]", "[901 100 100]"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("join rows = %v, want %v", got, want)
	}
	// Only continental's three rows were loaded at the csv site: Q'
	// reads the coordinator's own table in place. The temp table is gone
	// from the store and from its directory.
	if st := srv.Stats(); st.Loads != 1 || st.LoadedRows != 3 {
		t.Fatalf("csv site stats = %+v, want 1 load of continental's 3 rows", st)
	}
	if tables, err := sess.ListTables(); err != nil || len(tables) != 1 {
		t.Fatalf("tables at the csv site = %v, %v", tables, err)
	}
	// FROM order does not move the coordinator, only the answer's label:
	// the first FROM database names it.
	results, err = f.ExecScript(`
USE regional continental
SELECT c.flnu, r.flnu FROM continental.flights c, regional.flights r WHERE r.rate < c.rate
`)
	if err != nil {
		t.Fatal(err)
	}
	mt := results[len(results)-1].Multitable
	if len(mt.Tables) != 1 || mt.Tables[0].Database != "continental" || len(mt.Tables[0].Rows) != 4 {
		t.Fatalf("multitable = %+v", mt)
	}
	if st := srv.Stats(); st.Loads != 2 || st.LoadedRows != 6 {
		t.Fatalf("csv site stats = %+v, want a second load of continental's 3 rows", st)
	}
}

func TestGlobalInsertTransfer(t *testing.T) {
	f := paperFederation(t, false)
	_, err := f.ExecScript(`
USE avis national
INSERT INTO avis.cars (code, cartype)
SELECT v.vcode, v.vty FROM national.vehicle v WHERE v.vstat = 'FREE'
`)
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := f.Server("svc_avis").OpenSession("avis")
	defer sess.Close()
	res, err := sess.Exec("SELECT cartype FROM cars WHERE code = 12")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "truck" {
		t.Fatalf("transferred rows = %v", res.Rows)
	}
}

func TestExplicitCommitAndRollback(t *testing.T) {
	f := paperFederation(t, false)
	// ROLLBACK undoes the vital update.
	results, err := f.ExecScript(`
USE avis VITAL
UPDATE cars SET rate = rate * 2 WHERE code = 1
ROLLBACK
`)
	if err != nil {
		t.Fatal(err)
	}
	last := results[len(results)-1]
	if last.State != StateAborted {
		t.Fatalf("state = %s", last.State)
	}
	if got := localRate(t, f, "svc_avis", "avis", "SELECT rate FROM cars WHERE code = 1"); got != 49.5 {
		t.Fatalf("rate = %v", got)
	}
	// COMMIT makes it durable.
	if _, err := f.ExecScript(`
USE avis VITAL
UPDATE cars SET rate = rate * 2 WHERE code = 1
COMMIT
`); err != nil {
		t.Fatal(err)
	}
	if got := localRate(t, f, "svc_avis", "avis", "SELECT rate FROM cars WHERE code = 1"); got != 99 {
		t.Fatalf("rate = %v", got)
	}
}

func TestScopeChangeIsSyncPoint(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
USE avis VITAL
UPDATE cars SET rate = rate + 1 WHERE code = 1
USE national
SELECT vcode FROM vehicle
`)
	if err != nil {
		t.Fatal(err)
	}
	// The USE national flushed the avis unit.
	var sawSync bool
	for _, r := range results {
		if r.Kind == KindSync && r.State == StateSuccess {
			sawSync = true
		}
	}
	if !sawSync {
		t.Fatal("scope change did not synchronize the unit")
	}
	if got := localRate(t, f, "svc_avis", "avis", "SELECT rate FROM cars WHERE code = 1"); got != 50.5 {
		t.Fatalf("rate = %v", got)
	}
}

func TestGDDMaintainedAfterDDL(t *testing.T) {
	f := paperFederation(t, false)
	_, err := f.ExecScript(`
USE avis
CREATE TABLE rentals (rid INTEGER, code INTEGER)
`)
	if err != nil {
		t.Fatal(err)
	}
	def, err := f.GDD.Table("avis", "rentals")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Columns) != 2 || def.Columns[0].Name != "rid" {
		t.Fatalf("GDD def = %+v", def)
	}
	// And queryable through MSQL right away.
	if _, err := f.ExecScript("USE avis\nSELECT rid FROM rentals"); err != nil {
		t.Fatal(err)
	}
	// DROP removes it from the GDD.
	if _, err := f.ExecScript("USE avis\nDROP TABLE rentals"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.GDD.Table("avis", "rentals"); err == nil {
		t.Fatal("dropped table still in GDD")
	}
}

func TestCreateThenInsertInOneUnit(t *testing.T) {
	f := paperFederation(t, false)
	_, err := f.ExecScript(`
USE avis
CREATE TABLE rentals (rid INTEGER, code INTEGER)
INSERT INTO rentals (rid, code) VALUES (1, 3)
`)
	if err != nil {
		t.Fatal(err)
	}
	results, err := f.ExecScript("USE avis\nSELECT rid FROM rentals")
	if err != nil {
		t.Fatal(err)
	}
	sel := results[len(results)-1]
	if sel.Multitable.TotalRows() != 1 {
		t.Fatalf("rows = %d", sel.Multitable.TotalRows())
	}
}

func TestProvisionalDefDroppedOnFailure(t *testing.T) {
	f := paperFederation(t, false)
	// The CREATE's unit aborts (vital + injected fault): the provisional
	// GDD entry must disappear.
	f.Server("svc_avis").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultPrepare, Database: "avis"})
	_, err := f.ExecScript(`
USE avis VITAL
CREATE TABLE ghost (gid INTEGER)
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.GDD.Table("avis", "ghost"); err == nil {
		t.Fatal("provisional definition survived an aborted unit")
	}
	// And in dry-run mode nothing sticks either.
	f.DryRun = true
	if _, err := f.ExecScript("USE avis\nCREATE TABLE ghost2 (gid INTEGER)"); err != nil {
		t.Fatal(err)
	}
	f.DryRun = false
	if _, err := f.GDD.Table("avis", "ghost2"); err == nil {
		t.Fatal("dry run left a GDD entry")
	}
}

func TestIngresLikeDDLQuirkVisibleThroughFederation(t *testing.T) {
	f := paperFederation(t, false)
	// united's service autocommits DDL (its AD record says CREATE
	// COMMIT): a VITAL CREATE cannot be held in the prepared state, so
	// the translator demands a COMP clause — the "subtle heterogeneities"
	// the per-command commit modes exist for.
	_, err := f.ExecScript(`
USE united VITAL
CREATE TABLE side (a INTEGER)
`)
	if !errors.Is(err, translate.ErrVitalNeedsComp) {
		t.Fatalf("err = %v, want ErrVitalNeedsComp", err)
	}
	// With compensation supplied the unit runs; the server commits the
	// DDL silently and the vital condition tests the committed state.
	results, err := f.ExecScript(`
USE united VITAL
CREATE TABLE side (a INTEGER)
COMP united DROP TABLE side
`)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateSuccess {
		t.Fatalf("state = %s", sync.State)
	}
	st := f.Server("svc_unit").Stats()
	if st.SilentCommits == 0 {
		t.Fatal("expected a silent commit from the Ingres-like DDL profile")
	}
	// A plain (NON VITAL) DDL statement needs no COMP.
	if _, err := f.ExecScript("USE united\nCREATE TABLE side2 (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
}

func TestIncorrectStateDetectedOnCommitFault(t *testing.T) {
	f := paperFederation(t, false)
	// Fault at commit time on united only: continental's commit succeeds,
	// united's fails after both prepared -> the "incorrect" execution the
	// paper warns about.
	f.Server("svc_unit").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultCommit, Database: "united"})
	results, err := f.ExecScript(`
USE continental VITAL united VITAL
UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston'
`)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateIncorrect {
		t.Fatalf("state = %s, want incorrect", sync.State)
	}
}

func TestSelectNeedsScope(t *testing.T) {
	f := paperFederation(t, false)
	_, err := f.ExecScript("SELECT code FROM cars")
	if !errors.Is(err, translate.ErrNoScope) {
		t.Fatalf("err = %v", err)
	}
}

func TestSkippedDatabasesReported(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
USE avis national
SELECT code FROM cars%
`)
	if err != nil {
		t.Fatal(err)
	}
	sel := results[len(results)-1]
	if len(sel.Skipped) != 1 || sel.Skipped[0].Entry.Name != "national" {
		t.Fatalf("skipped = %+v", sel.Skipped)
	}
}

func TestDryRunProducesDOLWithoutExecuting(t *testing.T) {
	f := paperFederation(t, false)
	f.DryRun = true
	results, err := f.ExecScript(`
USE continental VITAL delta united VITAL
UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston' AND dest% = 'San Antonio'
`)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if !strings.Contains(sync.DOL, "TASK T1 NOCOMMIT FOR continental") {
		t.Fatalf("DOL = %s", sync.DOL)
	}
	// No data changed.
	f.DryRun = false
	if got := localRate(t, f, "svc_cont", "continental", "SELECT rate FROM flights WHERE flnu = 100"); got != 100 {
		t.Fatalf("rate = %v", got)
	}
}

func TestUseCurrentExtendsScope(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
USE avis
USE CURRENT national
SELECT %code FROM car%
LET x BE y
`)
	// LET with single-component var is legal; the script just checks the
	// extended scope reaches both rental databases.
	if err != nil {
		t.Fatal(err)
	}
	var sel *Result
	for _, r := range results {
		if r.Kind == KindSelect {
			sel = r
		}
	}
	if sel == nil {
		t.Fatal("no select result")
	}
	// cars% matches avis only; but scope includes both, so one table plus
	// one skip.
	if len(sel.Multitable.Tables)+len(sel.Skipped) != 2 {
		t.Fatalf("tables = %d skipped = %d", len(sel.Multitable.Tables), len(sel.Skipped))
	}
}
