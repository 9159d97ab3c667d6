package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/obs"
)

// TestFederationExplainPlain renders the decomposition of a fan-out
// multiple query without touching any site: task nodes for both scope
// entries, no execution annotations.
func TestFederationExplainPlain(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
USE avis national
LET car.type.status BE cars.cartype.carst
                       vehicle.vty.vstat
EXPLAIN SELECT %code, type, ~rate FROM car WHERE status = 'available'
`)
	if err != nil {
		t.Fatal(err)
	}
	r := results[len(results)-1]
	if r.Kind != KindExplain {
		t.Fatalf("kind = %v, want KindExplain", r.Kind)
	}
	p := r.Plan
	if p == nil {
		t.Fatal("no plan attached")
	}
	if p.Op != "msql" || p.Detail != "fan-out select" {
		t.Fatalf("root = %s %q", p.Op, p.Detail)
	}
	tasks := p.FindAll("task")
	if len(tasks) != 2 {
		t.Fatalf("task nodes = %d, want one per scope entry:\n%s", len(tasks), p.Render())
	}
	names := p.Render()
	for _, db := range []string{"avis", "national"} {
		if !strings.Contains(names, db) {
			t.Fatalf("plan names no task on %s:\n%s", db, names)
		}
	}
	for _, n := range append(tasks, p) {
		if n.Analyzed {
			t.Fatalf("plain EXPLAIN must not execute, node %s is analyzed", n.Op)
		}
		if strings.Contains(n.Detail, "status=") {
			t.Fatalf("plain EXPLAIN carries an execution status: %q", n.Detail)
		}
	}
	if r.DOL == "" {
		t.Fatal("no DOL program text")
	}
}

// TestFederationExplainAnalyze is the acceptance scenario: EXPLAIN
// ANALYZE of a decomposed cross-database join must execute it, return a
// tree whose per-operator rows are consistent with the assembled result,
// and graft each site's local plan under its task node.
func TestFederationExplainAnalyze(t *testing.T) {
	f := paperFederation(t, false)
	results, err := f.ExecScript(`
USE continental united
EXPLAIN ANALYZE SELECT c.flnu, u.fn
FROM continental.flights c, united.flight u
WHERE c.rate < u.rates
`)
	if err != nil {
		t.Fatal(err)
	}
	r := results[len(results)-1]
	if r.Kind != KindExplain {
		t.Fatalf("kind = %v", r.Kind)
	}
	if r.Multitable == nil || r.Multitable.TotalRows() != 4 {
		t.Fatalf("ANALYZE did not produce the query's result: %+v", r.Multitable)
	}
	p := r.Plan
	if p == nil || !p.Analyzed {
		t.Fatal("no analyzed plan")
	}
	if p.Detail != "decomposed global query" {
		t.Fatalf("root detail = %q", p.Detail)
	}
	if p.Rows != int64(r.Multitable.TotalRows()) {
		t.Fatalf("root rows = %d, result has %d", p.Rows, r.Multitable.TotalRows())
	}
	if p.TimeNS <= 0 {
		t.Fatal("root has no wall time")
	}
	// continental's three flights outnumber united's two: continental
	// coordinates, so united is read and shipped and continental's table
	// is read in place by the final task.
	if c := p.Find("coordinator"); c == nil || c.Detail != "continental (estimated rows continental=3 united=2)" {
		t.Fatalf("no coordinator choice on the plan:\n%s", p.Render())
	}
	tasks := p.FindAll("task")
	if len(tasks) != 2 { // united's read + the final assembly task
		t.Fatalf("task nodes = %d:\n%s", len(tasks), p.Render())
	}
	var final *obs.PlanNode
	for _, n := range tasks {
		if !n.Analyzed {
			t.Fatalf("task %q not analyzed", n.Detail)
		}
		if !strings.Contains(n.Detail, "status=committed") {
			t.Fatalf("task %q did not commit", n.Detail)
		}
		if strings.Contains(n.Detail, "final") {
			final = n
		}
	}
	if final == nil {
		t.Fatalf("no final task node:\n%s", p.Render())
	}
	if final.Rows != int64(r.Multitable.TotalRows()) {
		t.Fatalf("final task rows = %d, result has %d", final.Rows, r.Multitable.TotalRows())
	}
	// The ship reports what it moved: united's two flights, in one Load
	// batch (loops), in measured time.
	ships := p.FindAll("ship")
	if len(ships) != 1 {
		t.Fatalf("expected one ship node, for united's read task:\n%s", p.Render())
	}
	if n := ships[0]; !strings.Contains(n.Detail, "continental.mtmp_united") || !n.Analyzed || n.Rows != 2 || n.Loops != 1 || n.TimeNS <= 0 {
		t.Fatalf("ship %q: analyzed=%v rows=%d batches=%d time=%dns, want 2 rows in 1 batch:\n%s",
			n.Detail, n.Analyzed, n.Rows, n.Loops, n.TimeNS, p.Render())
	}
	// Site-local subtrees are grafted under the tasks: the final task
	// scans the shipped temp table and continental's own table.
	for _, want := range []string{"scan mtmp_united", "scan c"} {
		found := false
		for _, n := range final.FindAll("scan") {
			found = found || strings.HasPrefix(n.Op+" "+n.Detail, want)
		}
		if !found {
			t.Fatalf("final task has no %q in its grafted local plan:\n%s", want, p.Render())
		}
	}
	var taskRows int64
	for _, n := range tasks {
		if n != final && strings.Contains(n.Detail, "read") {
			taskRows += n.Rows
		}
	}
	if taskRows != 2 {
		t.Fatalf("read tasks produced %d rows, want united's 2:\n%s", taskRows, p.Render())
	}
}

// TestFederationExplainPlainGlobal: plain EXPLAIN of a cross-database
// join names the coordinator and every group's estimate from the GDD
// alone, and runs nothing at any site.
func TestFederationExplainPlainGlobal(t *testing.T) {
	f := paperFederation(t, false)
	before := map[string]ldbms.Stats{}
	for _, svc := range []string{"svc_cont", "svc_unit"} {
		before[svc] = f.Server(svc).Stats()
	}
	results, err := f.ExecScript(`
USE continental united
EXPLAIN SELECT c.flnu, u.fn FROM united.flight u, continental.flights c WHERE c.rate < u.rates AND u.day = 'tue'
`)
	if err != nil {
		t.Fatal(err)
	}
	p := results[len(results)-1].Plan
	// united: 2 rows x 1/10 for its equality; continental: 3 rows.
	if c := p.Find("coordinator"); c == nil || c.Detail != "continental (estimated rows united=0.2 continental=3)" {
		t.Fatalf("coordinator node:\n%s", p.Render())
	}
	for svc, st := range before {
		if got := f.Server(svc).Stats(); got != st {
			t.Fatalf("plain EXPLAIN touched %s: %+v then %+v", svc, st, got)
		}
	}
}

// TestFederationExplainAnalyzeCSVSite: a csv site runs the same executor
// as every other site, so its read task carries an executed operator
// subtree like theirs — rows and loops from the scan over the table
// image, not an opaque task node.
func TestFederationExplainAnalyzeCSVSite(t *testing.T) {
	f := paperFederation(t, false)
	serveSite(t, f, ldbms.Spec{Service: "svc_csv", Profile: ldbms.ProfileAutoCommitOnly(),
		Backend: ldbms.BackendCSV, DB: "regional", Boot: []string{
			`CREATE TABLE flights (flnu INTEGER, source CHAR(20), rate FLOAT)`,
			`INSERT INTO flights VALUES (900, 'Waco', 40.0), (901, 'Waco', 55.0), (902, 'Tyler', 70.0)`,
		}})

	results, err := f.ExecScript(`
INCORPORATE SERVICE svc_csv CONNECTMODE CONNECT COMMITMODE COMMIT;
IMPORT DATABASE regional FROM SERVICE svc_csv;
USE continental regional
EXPLAIN ANALYZE SELECT flnu, rate FROM flights WHERE rate > 50.0
`)
	if err != nil {
		t.Fatal(err)
	}
	r := results[len(results)-1]
	if r.Kind != KindExplain || r.Plan == nil {
		t.Fatalf("kind = %v, plan = %v", r.Kind, r.Plan)
	}
	// continental holds 100.0, 80.0 and 60.0, regional 55.0 and 70.0.
	if r.Multitable == nil || r.Multitable.TotalRows() != 5 {
		t.Fatalf("ANALYZE did not produce the query's result: %+v", r.Multitable)
	}
	var csvTask *obs.PlanNode
	for _, n := range r.Plan.FindAll("task") {
		if strings.Contains(n.Detail, "regional") {
			csvTask = n
		}
	}
	if csvTask == nil {
		t.Fatalf("no task on the csv site:\n%s", r.Plan.Render())
	}
	scan := csvTask.Find("scan")
	if scan == nil || !scan.Analyzed || scan.Loops != 1 || scan.Rows != 2 {
		t.Fatalf("csv task has no executed scan of its 2 matching rows:\n%s", r.Plan.Render())
	}
	if !strings.Contains(scan.Detail, "filter(rate > 50") {
		t.Fatalf("csv scan lost its pushed-down filter: %q", scan.Detail)
	}
}

// TestFederationExplainWrite: EXPLAIN [ANALYZE] accepts UPDATE and
// DELETE. Plain EXPLAIN renders the write tasks and touches no site;
// ANALYZE runs the multiple update through the normal commit protocol
// exactly once and grafts each site's plan under its task — an
// index-probe on the keyed rel table, a scan on the csv site, which
// declares keys but keeps no index.
func TestFederationExplainWrite(t *testing.T) {
	boot := []string{
		`CREATE TABLE acct (id INTEGER PRIMARY KEY, bal INTEGER)`,
		`INSERT INTO acct VALUES (6, 10), (7, 10), (8, 10)`,
	}
	f := newFederation(t)
	serveSite(t, f, ldbms.Spec{Service: "svc_bank", DB: "bank", Boot: boot})
	serveSite(t, f, ldbms.Spec{Service: "svc_csv", Profile: ldbms.ProfileAutoCommitOnly(),
		Backend: ldbms.BackendCSV, DB: "regional", Boot: boot})
	balances := func() map[string]int64 {
		t.Helper()
		rs, err := f.ExecScript("USE bank regional\nSELECT id, bal FROM acct")
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, tbl := range rs[len(rs)-1].Multitable.Tables {
			for _, row := range tbl.Rows {
				id, _ := row[0].AsInt()
				bal, _ := row[1].AsInt()
				got[fmt.Sprintf("%s/%d", tbl.Database, id)] = bal
			}
		}
		return got
	}

	results, err := f.ExecScript(`
INCORPORATE SERVICE svc_bank CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
INCORPORATE SERVICE svc_csv CONNECTMODE CONNECT COMMITMODE COMMIT;
IMPORT DATABASE bank FROM SERVICE svc_bank;
IMPORT DATABASE regional FROM SERVICE svc_csv;
USE bank VITAL regional
EXPLAIN UPDATE acct SET bal = bal + 1 WHERE id = 7
`)
	if err != nil {
		t.Fatal(err)
	}
	plain := results[len(results)-1]
	if plain.Kind != KindExplain || plain.Plan == nil || plain.Plan.Detail != "fan-out write" {
		t.Fatalf("plain EXPLAIN UPDATE: kind %v plan %v", plain.Kind, plain.Plan)
	}
	if n := len(plain.Plan.FindAll("task")); n != 2 {
		t.Fatalf("plain EXPLAIN UPDATE has %d task nodes, want 2:\n%s", n, plain.Plan.Render())
	}
	if got := balances(); got["bank/7"] != 10 || got["regional/7"] != 10 {
		t.Fatalf("plain EXPLAIN wrote: %v", got)
	}

	results, err = f.ExecScript("USE bank VITAL regional\nEXPLAIN ANALYZE UPDATE acct SET bal = bal + 1 WHERE id = 7")
	if err != nil {
		t.Fatal(err)
	}
	r := results[len(results)-1]
	if r.Kind != KindExplain || r.Plan == nil || r.State != StateSuccess {
		t.Fatalf("kind = %v, state = %v, plan = %v", r.Kind, r.State, r.Plan)
	}
	if r.Plan.Rows != 2 || r.RowsAffected["bank"] != 1 || r.RowsAffected["regional"] != 1 {
		t.Fatalf("rows: root %d, per db %v", r.Plan.Rows, r.RowsAffected)
	}
	wantPath := map[string]string{"bank": "index-probe", "regional": "scan"}
	for _, task := range r.Plan.FindAll("task") {
		for db, op := range wantPath {
			if !strings.Contains(task.Detail, " on "+db) {
				continue
			}
			delete(wantPath, db)
			upd := task.Find("update")
			if upd == nil || !upd.Analyzed || upd.Rows != 1 || task.Rows != 1 {
				t.Fatalf("%s: no executed update subtree with 1 row:\n%s", db, r.Plan.Render())
			}
			if path := upd.Find(op); path == nil || path.Rows != 1 || !strings.Contains(path.Detail, "filter(id = 7)") {
				t.Fatalf("%s: access path is not a %s of one row:\n%s", db, op, r.Plan.Render())
			}
			if !strings.Contains(task.Detail, "status=committed") {
				t.Fatalf("%s: task did not commit: %q", db, task.Detail)
			}
		}
	}
	if len(wantPath) != 0 {
		t.Fatalf("no task node for %v:\n%s", wantPath, r.Plan.Render())
	}
	want := map[string]int64{
		"bank/6": 10, "bank/7": 11, "bank/8": 10,
		"regional/6": 10, "regional/7": 11, "regional/8": 10,
	}
	if got := balances(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after EXPLAIN ANALYZE UPDATE: %v, want %v (updated exactly once)", got, want)
	}

	// DELETE goes the same way.
	results, err = f.ExecScript("USE bank VITAL regional\nEXPLAIN ANALYZE DELETE FROM acct WHERE id = 8")
	if err != nil {
		t.Fatal(err)
	}
	if del := results[len(results)-1].Plan.Find("delete"); del == nil || del.Rows != 1 {
		t.Fatalf("no executed delete subtree:\n%s", results[len(results)-1].Plan.Render())
	}
	delete(want, "bank/8")
	delete(want, "regional/8")
	if got := balances(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after EXPLAIN ANALYZE DELETE: %v, want %v", got, want)
	}
}

// TestExplainInventoryAndSlowLog checks the statement-level surface: the
// EXPLAIN ANALYZE statement appears in the query inventory behind
// /debug/queries with the same trace id as its result, and the installed
// slow-query log receives a JSON line carrying that trace id and the
// plan digest.
func TestExplainInventoryAndSlowLog(t *testing.T) {
	var buf bytes.Buffer
	obs.SetSlowQueryLog(obs.NewSlowQueryLog(&buf, time.Nanosecond))
	defer obs.SetSlowQueryLog(nil)

	f := paperFederation(t, false)
	results, err := f.ExecScriptContext(context.Background(), `
USE continental united
EXPLAIN ANALYZE SELECT c.flnu, u.fn
FROM continental.flights c, united.flight u
WHERE c.rate < u.rates
`)
	if err != nil {
		t.Fatal(err)
	}
	r := results[len(results)-1]
	if r.TraceID == "" {
		t.Fatal("result has no trace id")
	}

	_, recent := obs.DefaultQueries.Snapshot()
	var rec *obs.QueryRecord
	for i := range recent {
		if recent[i].TraceID == r.TraceID && recent[i].Verb == "explain" {
			rec = &recent[i]
			break
		}
	}
	if rec == nil {
		t.Fatalf("/debug/queries has no explain record for trace %s", r.TraceID)
	}
	if !rec.Done || rec.Elapsed <= 0 {
		t.Fatalf("record not finished: %+v", rec)
	}
	if rec.Digest == "" || rec.Digest != r.Plan.Digest() {
		t.Fatalf("record digest %q != plan digest %q", rec.Digest, r.Plan.Digest())
	}
	if rec.Plan == nil || rec.Plan.Find("task") == nil {
		t.Fatal("record carries no plan tree")
	}
	if !strings.HasPrefix(rec.SQL, "EXPLAIN ANALYZE SELECT") {
		t.Fatalf("record sql = %q", rec.SQL)
	}

	// Every line in the slow log (threshold 1ns: everything is slow) is
	// valid JSON; one of them is our statement.
	found := false
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e struct {
			TraceID    string  `json:"trace_id"`
			Verb       string  `json:"verb"`
			SQL        string  `json:"sql"`
			ElapsedMS  float64 `json:"elapsed_ms"`
			PlanDigest string  `json:"plan_digest"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("slow log line is not JSON: %q: %v", line, err)
		}
		if e.TraceID == r.TraceID && e.Verb == "explain" {
			found = true
			if e.ElapsedMS <= 0 {
				t.Fatalf("slow entry has no elapsed time: %q", line)
			}
			if e.PlanDigest != r.Plan.Digest() {
				t.Fatalf("slow entry digest %q != plan digest %q", e.PlanDigest, r.Plan.Digest())
			}
			if !strings.HasPrefix(e.SQL, "EXPLAIN ANALYZE SELECT") {
				t.Fatalf("slow entry sql = %q", e.SQL)
			}
		}
	}
	if !found {
		t.Fatalf("no slow-log entry for trace %s in:\n%s", r.TraceID, buf.String())
	}
}

// TestInventoryMTIDStamped checks that a journaled statement's inventory
// record carries the MTID the coordinator journal assigned, correlating
// /debug/queries with the recovery journal and the slow-query log.
func TestInventoryMTIDStamped(t *testing.T) {
	f := paperFederation(t, false)
	j, err := mtlog.Open(filepath.Join(t.TempDir(), "mt.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	f.SetJournal(j)
	_, err = f.ExecScriptContext(context.Background(), `
USE avis national
INSERT INTO avis.cars (code, cartype)
SELECT v.vcode, v.vty FROM national.vehicle v WHERE v.vstat = 'FREE'
`)
	if err != nil {
		t.Fatal(err)
	}
	_, recent := obs.DefaultQueries.Snapshot()
	for _, rec := range recent {
		if rec.Verb == "insert" && strings.Contains(rec.SQL, "avis.cars") {
			if rec.MTID == 0 {
				t.Fatalf("journaled insert has no MTID: %+v", rec)
			}
			return
		}
	}
	t.Fatal("no inventory record for the global insert")
}

// TestInventorySyncRecord checks that the end-of-script synchronization
// of queued DML appears in the inventory as its own "sync" entry with
// the journal's MTID.
func TestInventorySyncRecord(t *testing.T) {
	f := paperFederation(t, false)
	j, err := mtlog.Open(filepath.Join(t.TempDir(), "mt.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	f.SetJournal(j)
	_, err = f.ExecScriptContext(context.Background(), `
USE continental VITAL
UPDATE flights SET rate = rate + 1 WHERE flnu = 100
`)
	if err != nil {
		t.Fatal(err)
	}
	_, recent := obs.DefaultQueries.Snapshot()
	for _, rec := range recent {
		if rec.Verb == "sync" && strings.Contains(rec.SQL, "SYNCHRONIZE") {
			if !rec.Done {
				t.Fatalf("sync record not finished: %+v", rec)
			}
			if rec.MTID == 0 {
				t.Fatalf("sync record has no MTID: %+v", rec)
			}
			return
		}
	}
	t.Fatal("no sync record in the inventory")
}

// TestFederationExplainAnalyzeParity: EXPLAIN ANALYZE is a mode of the
// pipeline a statement runs through, so it returns what the plain
// statement returns — outcome, per-entry states and counts, rows and
// fired triggers — on a federation in the same state.
func TestFederationExplainAnalyzeParity(t *testing.T) {
	const join = "SELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.rate < u.rates"
	for _, tc := range []struct {
		name, use, stmt string
		fired           []string // nil: a read, which returns rows
	}{
		{"fan-out select", "USE continental united", "SELECT rate% FROM flight%", nil},
		{"global join", "USE continental united", join, nil},
		{"vital update", "USE continental VITAL united VITAL", "UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston'", []string{"onupdate"}},
		{"csv delete", "USE regional", "DELETE FROM flights WHERE flnu = 901", []string{"ondelete"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(stmt string) *Result {
				t.Helper()
				f := paperFederation(t, false)
				serveSite(t, f, ldbms.Spec{Service: "svc_csv", Profile: ldbms.ProfileAutoCommitOnly(),
					Backend: ldbms.BackendCSV, DB: "regional", Boot: []string{
						`CREATE TABLE flights (flnu INTEGER, source CHAR(20), rate FLOAT)`,
						`INSERT INTO flights VALUES (900, 'Waco', 40.0), (901, 'Waco', 55.0), (902, 'Tyler', 70.0)`,
					}})
				if _, err := f.ExecScript(`
INCORPORATE SERVICE svc_csv CONNECTMODE CONNECT COMMITMODE COMMIT;
IMPORT DATABASE regional FROM SERVICE svc_csv;
USE avis
CREATE TABLE audit (what CHAR(40))
COMMIT
CREATE TRIGGER onupdate ON continental AFTER UPDATE EXECUTE INSERT INTO audit (what) VALUES ('update');
CREATE TRIGGER ondelete ON regional AFTER DELETE EXECUTE INSERT INTO audit (what) VALUES ('delete')`); err != nil {
					t.Fatal(err)
				}
				results, err := f.ExecScript(tc.use + "\n" + stmt)
				if err != nil {
					t.Fatal(err)
				}
				return results[len(results)-1]
			}
			plain, analyzed := run(tc.stmt), run("EXPLAIN ANALYZE "+tc.stmt)
			if tc.fired == nil && (plain.Multitable == nil || plain.Multitable.TotalRows() == 0) {
				t.Fatalf("the plain read returned no rows: %+v", plain.Multitable)
			}
			if !reflect.DeepEqual(plain.TriggersFired, tc.fired) {
				t.Fatalf("the plain statement fired %v, want %v", plain.TriggersFired, tc.fired)
			}
			if analyzed.Kind != KindExplain || analyzed.Plan == nil || !analyzed.Plan.Analyzed {
				t.Fatalf("EXPLAIN ANALYZE: kind %v, plan %v", analyzed.Kind, analyzed.Plan)
			}
			if plain.State != analyzed.State {
				t.Errorf("State: %s, EXPLAIN ANALYZE %s", plain.State, analyzed.State)
			}
			if !reflect.DeepEqual(plain.TaskStates, analyzed.TaskStates) {
				t.Errorf("TaskStates: %v, EXPLAIN ANALYZE %v", plain.TaskStates, analyzed.TaskStates)
			}
			if !reflect.DeepEqual(plain.RowsAffected, analyzed.RowsAffected) {
				t.Errorf("RowsAffected: %v, EXPLAIN ANALYZE %v", plain.RowsAffected, analyzed.RowsAffected)
			}
			if !reflect.DeepEqual(plain.Multitable, analyzed.Multitable) {
				t.Errorf("multitable: %+v, EXPLAIN ANALYZE %+v", plain.Multitable, analyzed.Multitable)
			}
			if !reflect.DeepEqual(plain.TriggersFired, analyzed.TriggersFired) {
				t.Errorf("TriggersFired: %v, EXPLAIN ANALYZE %v", plain.TriggersFired, analyzed.TriggersFired)
			}
		})
	}
}
