package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"msql/internal/ldbms"
	"msql/internal/mtlog"
)

// Every statement that runs a DOL program settles through execPlan, so
// a multitransaction and a trigger keep the GDD in step with their DDL
// exactly as a unit does, and a multitransaction fires triggers.

// updateDelta commits one UPDATE at delta as a unit of its own: the
// event the trigger tests below react to.
const updateDelta = "USE delta\nUPDATE flight SET rate = rate + 1 WHERE fnu = 200\nCOMMIT"

// firedBy collects the triggers every result reports.
func firedBy(results []*Result) []string {
	var fired []string
	for _, r := range results {
		fired = append(fired, r.TriggersFired...)
	}
	return fired
}

func TestMultiTxDDLReachesGDD(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
BEGIN MULTITRANSACTION
USE delta
CREATE TABLE hist (x INTEGER)
COMMIT delta
END MULTITRANSACTION`)
	if err != nil {
		t.Fatal(err)
	}
	if r := results[len(results)-1]; r.Kind != KindMultiTx || r.State != StateSuccess {
		t.Fatalf("kind %v, state %s", r.Kind, r.State)
	}
	if _, err := f.GDD.Table("delta", "hist"); err != nil {
		t.Fatalf("committed CREATE TABLE missing from the GDD: %v", err)
	}
	if _, err := f.ExecScript("USE delta\nSELECT x FROM hist"); err != nil {
		t.Fatalf("the new table is not queryable: %v", err)
	}
}

func TestTriggerDropTableLeavesGDD(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript(`
USE avis
CREATE TABLE junk (x INTEGER)
COMMIT
CREATE TRIGGER dropjunk ON delta AFTER UPDATE EXECUTE DROP TABLE junk`); err != nil {
		t.Fatal(err)
	}
	if _, err := f.GDD.Table("avis", "junk"); err != nil {
		t.Fatal(err)
	}
	results, err := f.ExecScript(updateDelta)
	if err != nil {
		t.Fatal(err)
	}
	if fired := firedBy(results); !reflect.DeepEqual(fired, []string{"dropjunk"}) {
		t.Fatalf("fired = %v", fired)
	}
	sess, err := f.Server("svc_avis").OpenSession("avis")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exec("SELECT x FROM junk"); err == nil {
		t.Fatal("the trigger did not drop junk at svc_avis")
	}
	if _, err := f.GDD.Table("avis", "junk"); err == nil {
		t.Fatal("the GDD still holds avis.junk after the trigger dropped it")
	}
}

func TestTriggerFailedCreateLeavesNoGDDEntry(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript("USE avis\nCREATE TRIGGER mk ON delta AFTER UPDATE EXECUTE CREATE TABLE newt (x INTEGER)"); err != nil {
		t.Fatal(err)
	}
	f.Server("svc_avis").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "avis"})
	results, err := f.ExecScript(updateDelta)
	if err != nil {
		t.Fatal(err)
	}
	if fired := firedBy(results); !reflect.DeepEqual(fired, []string{"mk"}) {
		t.Fatalf("fired = %v", fired)
	}
	f.Server("svc_avis").Faults().Clear()
	sess, err := f.Server("svc_avis").OpenSession("avis")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exec("SELECT x FROM newt"); err == nil {
		t.Fatal("the failed CREATE TABLE left newt at svc_avis")
	}
	if _, err := f.GDD.Table("avis", "newt"); err == nil {
		t.Fatal("the GDD holds avis.newt, which svc_avis never created")
	}
}

// TestTriggerFiresAfterMultiTx: DESIGN §3's rule — a trigger fires after
// a successful synchronization in which its database committed a
// statement of its class — holds for a multitransaction as for a unit.
func TestTriggerFiresAfterMultiTx(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript(`
USE avis
CREATE TABLE audit (what CHAR(40))
COMMIT
CREATE TRIGGER mirror ON delta AFTER UPDATE EXECUTE
INSERT INTO audit (what) VALUES ('delta updated')`); err != nil {
		t.Fatal(err)
	}
	results, err := f.ExecScript(`
BEGIN MULTITRANSACTION
USE delta
UPDATE flight SET rate = rate + 1 WHERE fnu = 200
COMMIT delta
END MULTITRANSACTION
` + updateDelta)
	if err != nil {
		t.Fatal(err)
	}
	var mtx, unit *Result
	for _, r := range results {
		switch r.Kind {
		case KindMultiTx:
			mtx = r
		case KindSync:
			unit = r
		}
	}
	if mtx == nil || unit == nil {
		t.Fatalf("want a multitransaction and a unit result, got %d results", len(results))
	}
	if mtx.State != StateSuccess || !reflect.DeepEqual(mtx.TriggersFired, []string{"mirror"}) {
		t.Fatalf("multitransaction: state %s, fired %v", mtx.State, mtx.TriggersFired)
	}
	if !reflect.DeepEqual(unit.TriggersFired, []string{"mirror"}) {
		t.Fatalf("unit: fired %v", unit.TriggersFired)
	}
	sess, err := f.Server("svc_avis").OpenSession("avis")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec("SELECT COUNT(what) FROM audit")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 2 {
		t.Fatalf("audit rows = %d, want one per synchronization", n)
	}
}

// TestReadPlansAreNotJournaled pins the rule runPlan reads off the plan:
// a plan of reads and final SELECTs appends nothing to the coordinator
// journal, a plan that writes appends one begin ... end.
func TestReadPlansAreNotJournaled(t *testing.T) {
	f := paperFederation(t, false)
	j, err := mtlog.Open(filepath.Join(t.TempDir(), "mt.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	f.SetJournal(j)
	if _, err := f.ExecScript("USE continental united\nCREATE MULTIVIEW fares AS SELECT rate% FROM flight%"); err != nil {
		t.Fatal(err)
	}
	records := func() []mtlog.Record {
		t.Helper()
		recs, err := j.Records()
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	const join = "SELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.rate < u.rates"
	for _, tc := range []struct {
		name, script string
		journaled    bool
	}{
		{"fan-out select", "USE continental united\nSELECT rate% FROM flight%", false},
		{"global select", "USE continental united\n" + join, false},
		{"multiview", "SELECT * FROM fares", false},
		{"explain analyze select", "USE continental united\nEXPLAIN ANALYZE " + join, false},
		{"update unit", "USE continental VITAL\nUPDATE flights SET rate = rate + 1 WHERE flnu = 100\nCOMMIT", true},
		{"explain analyze update", "USE continental VITAL\nEXPLAIN ANALYZE UPDATE flights SET rate = rate + 1 WHERE flnu = 100", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := records()
			if _, err := f.ExecScript(tc.script); err != nil {
				t.Fatal(err)
			}
			added := records()[len(before):]
			if !tc.journaled {
				if len(added) != 0 {
					t.Fatalf("a read plan appended %d journal records", len(added))
				}
				return
			}
			if len(added) < 2 || added[0].Type != mtlog.TBegin || added[len(added)-1].Type != mtlog.TEnd {
				t.Fatalf("want one TBegin ... TEnd, got %+v", added)
			}
			for _, r := range added[1 : len(added)-1] {
				if r.MTID != added[0].MTID || r.Type == mtlog.TBegin || r.Type == mtlog.TEnd {
					t.Fatalf("want the records of one multitransaction, got %+v", added)
				}
			}
		})
	}
}
