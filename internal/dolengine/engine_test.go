package dolengine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"msql/internal/dol"
	"msql/internal/lam"
	"msql/internal/ldbms"
)

// airlineFederation builds continental/delta/united servers with the
// paper's flight data and returns a directory mapping sites to LAMs.
func airlineFederation(t testing.TB) (MapDirectory, map[string]*ldbms.Server) {
	t.Helper()
	servers := map[string]*ldbms.Server{}
	dir := MapDirectory{}
	specs := []struct {
		site, db, create, insert string
	}{
		{"site1", "continental",
			"CREATE TABLE flights (flnu INTEGER, source CHAR(20), destination CHAR(20), rate FLOAT)",
			"INSERT INTO flights VALUES (1, 'Houston', 'San Antonio', 100.0), (2, 'Austin', 'Dallas', 50.0)"},
		{"site2", "delta",
			"CREATE TABLE flight (fnu INTEGER, source CHAR(20), dest CHAR(20), rate FLOAT)",
			"INSERT INTO flight VALUES (10, 'Houston', 'San Antonio', 110.0)"},
		{"site3", "united",
			"CREATE TABLE flight (fn INTEGER, sour CHAR(20), dest CHAR(20), rates FLOAT)",
			"INSERT INTO flight VALUES (20, 'Houston', 'San Antonio', 120.0)"},
	}
	for _, sp := range specs {
		srv := ldbms.NewServer(sp.site, ldbms.ProfileOracleLike(), 1)
		if err := srv.CreateDatabase(sp.db); err != nil {
			t.Fatal(err)
		}
		sess, err := srv.OpenSession(sp.db)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Exec(sp.create); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Exec(sp.insert); err != nil {
			t.Fatal(err)
		}
		sess.Commit()
		sess.Close()
		servers[sp.db] = srv
		dir[sp.site] = lam.NewLocal(srv)
	}
	return dir, servers
}

func rateOf(t *testing.T, srv *ldbms.Server, db, table, rateCol string, id int) float64 {
	t.Helper()
	sess, err := srv.OpenSession(db)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec(fmt.Sprintf("SELECT %s FROM %s", rateCol, table))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := res.Rows[0][0].AsFloat()
	return f
}

// paperProgram is the Section 4.3 evaluation plan.
const paperProgram = `
DOLBEGIN
OPEN continental AT site1 AS cont;
OPEN delta AT site2 AS delta;
OPEN united AT site3 AS unit;
TASK T1 NOCOMMIT FOR cont
{ UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston' AND destination = 'San Antonio' }
ENDTASK;
TASK T2 FOR delta
{ UPDATE flight SET rate = rate * 1.1 WHERE source = 'Houston' AND dest = 'San Antonio' }
ENDTASK;
TASK T3 NOCOMMIT FOR unit
{ UPDATE flight SET rates = rates * 1.1 WHERE sour = 'Houston' AND dest = 'San Antonio' }
ENDTASK;
IF (T1=P) AND (T3=P) THEN
BEGIN
COMMIT T1, T3;
DOLSTATUS=0;
END;
ELSE
BEGIN
ABORT T1, T3;
DOLSTATUS=1;
END;
CLOSE cont delta unit;
DOLEND
`

func runProgram(t *testing.T, dir Directory, src string) *Outcome {
	t.Helper()
	prog, err := dol.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	out, err := New(dir).Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPaperProgramSuccessPath(t *testing.T) {
	dir, servers := airlineFederation(t)
	out := runProgram(t, dir, paperProgram)
	if out.Status != 0 {
		t.Fatalf("DOLSTATUS = %d", out.Status)
	}
	if out.TaskStatus("T1") != dol.StatusCommitted || out.TaskStatus("T3") != dol.StatusCommitted {
		t.Fatalf("vital tasks: T1=%s T3=%s", out.TaskStatus("T1"), out.TaskStatus("T3"))
	}
	if out.TaskStatus("T2") != dol.StatusCommitted {
		t.Fatalf("T2 = %s", out.TaskStatus("T2"))
	}
	// All three rates raised.
	for db, probe := range map[string][3]string{
		"continental": {"flights", "rate", "110"},
		"delta":       {"flight", "rate", "121"},
		"united":      {"flight", "rates", "132"},
	} {
		got := rateOf(t, servers[db], db, probe[0], probe[1], 0)
		if got < 109 || got > 133 {
			t.Errorf("%s rate = %v", db, got)
		}
	}
	cont := rateOf(t, servers["continental"], "continental", "flights", "rate", 0)
	if cont < 109.9 || cont > 110.1 {
		t.Errorf("continental rate = %v", cont)
	}
}

func TestPaperProgramVitalFailureRollsBackBoth(t *testing.T) {
	dir, servers := airlineFederation(t)
	// Force united's update to fail: both vital tasks must end aborted,
	// DOLSTATUS=1, continental's prepared update rolled back.
	servers["united"].Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "united"})
	out := runProgram(t, dir, paperProgram)
	if out.Status != 1 {
		t.Fatalf("DOLSTATUS = %d", out.Status)
	}
	if out.TaskStatus("T1") != dol.StatusAborted || out.TaskStatus("T3") != dol.StatusAborted {
		t.Fatalf("T1=%s T3=%s", out.TaskStatus("T1"), out.TaskStatus("T3"))
	}
	if got := rateOf(t, servers["continental"], "continental", "flights", "rate", 0); got != 100 {
		t.Errorf("continental rate = %v, want rolled back to 100", got)
	}
	if got := rateOf(t, servers["united"], "united", "flight", "rates", 0); got != 120 {
		t.Errorf("united rate = %v", got)
	}
	// Delta is NON VITAL: its autocommitted update survives regardless.
	if got := rateOf(t, servers["delta"], "delta", "flight", "rate", 0); got < 120.9 || got > 121.1 {
		t.Errorf("delta rate = %v, non-vital update should stand", got)
	}
}

func TestPrepareFaultAbortsVitalSet(t *testing.T) {
	dir, servers := airlineFederation(t)
	servers["continental"].Faults().Add(ldbms.FaultRule{Op: ldbms.FaultPrepare, Database: "continental"})
	out := runProgram(t, dir, paperProgram)
	if out.Status != 1 {
		t.Fatalf("DOLSTATUS = %d", out.Status)
	}
	if out.TaskStatus("T1") != dol.StatusAborted {
		t.Fatalf("T1 = %s", out.TaskStatus("T1"))
	}
	if got := rateOf(t, servers["united"], "united", "flight", "rates", 0); got != 120 {
		t.Errorf("united rate = %v", got)
	}
	if err := out.Tasks["T1"].Err; !errors.Is(err, ldbms.ErrInjected) {
		t.Fatalf("T1 err = %v", err)
	}
}

func TestShipMovesRows(t *testing.T) {
	dir, servers := airlineFederation(t)
	src := `
DOLBEGIN
OPEN continental AT site1 AS cont;
OPEN delta AT site2 AS delta;
TASK T1 FOR delta
{ SELECT fnu, rate FROM flight }
ENDTASK;
SHIP T1 TO cont TABLE mtmp_delta (fnu INTEGER, rate FLOAT);
TASK T2 AFTER T1 FOR cont
{ SELECT COUNT(*) FROM mtmp_delta; DROP TABLE mtmp_delta }
ENDTASK;
CLOSE cont delta;
DOLEND
`
	out := runProgram(t, dir, src)
	if out.TaskStatus("T2") != dol.StatusCommitted {
		t.Fatalf("T2 = %s (%v)", out.TaskStatus("T2"), out.Tasks["T2"].Err)
	}
	// The temp table is gone after the program.
	sess, _ := servers["continental"].OpenSession("continental")
	defer sess.Close()
	if _, err := sess.Exec("SELECT * FROM mtmp_delta"); err == nil {
		t.Fatal("temp table survived")
	}
}

func TestShipFailedSourceErrors(t *testing.T) {
	dir, servers := airlineFederation(t)
	servers["delta"].Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "delta"})
	src := `
DOLBEGIN
OPEN continental AT site1 AS cont;
OPEN delta AT site2 AS delta;
TASK T1 FOR delta
{ SELECT fnu FROM flight }
ENDTASK;
SHIP T1 TO cont TABLE mtmp_x (fnu INTEGER);
CLOSE cont delta;
DOLEND
`
	prog, err := dol.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(dir).Run(context.Background(), prog)
	if !errors.Is(err, ErrShipFailed) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompensationPath(t *testing.T) {
	// Continental on an autocommit-only server, compensation instead of
	// rollback: the §3.3 path "Continental committed, United aborted".
	dir := MapDirectory{}
	servers := map[string]*ldbms.Server{}

	contSrv := ldbms.NewServer("site1", ldbms.ProfileAutoCommitOnly(), 1)
	contSrv.CreateDatabase("continental")
	s, _ := contSrv.OpenSession("continental")
	s.Exec("CREATE TABLE flights (flnu INTEGER, source CHAR(20), destination CHAR(20), rate FLOAT)")
	s.Exec("INSERT INTO flights VALUES (1, 'Houston', 'San Antonio', 100.0)")
	s.Close()
	dir["site1"] = lam.NewLocal(contSrv)
	servers["continental"] = contSrv

	unitSrv := ldbms.NewServer("site3", ldbms.ProfileOracleLike(), 1)
	unitSrv.CreateDatabase("united")
	s2, _ := unitSrv.OpenSession("united")
	s2.Exec("CREATE TABLE flight (fn INTEGER, sour CHAR(20), dest CHAR(20), rates FLOAT)")
	s2.Exec("INSERT INTO flight VALUES (20, 'Houston', 'San Antonio', 120.0)")
	s2.Commit()
	s2.Close()
	dir["site3"] = lam.NewLocal(unitSrv)
	servers["united"] = unitSrv

	// Fail united's exec: continental already autocommitted, so the plan
	// compensates it.
	unitSrv.Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "united"})

	src := `
DOLBEGIN
OPEN continental AT site1 AS cont;
OPEN united AT site3 AS unit;
TASK T1 FOR cont
{ UPDATE flights SET rate = rate * 1.1 WHERE source = 'Houston' }
ENDTASK;
TASK T3 NOCOMMIT FOR unit
{ UPDATE flight SET rates = rates * 1.1 WHERE sour = 'Houston' }
ENDTASK;
IF (T1=C) AND (T3=P) THEN
BEGIN
COMMIT T3;
DOLSTATUS=0;
END;
ELSE
BEGIN
ABORT T3;
IF (T1=C) THEN
BEGIN
TASK TC1 FOR cont
{ UPDATE flights SET rate = rate / 1.1 WHERE source = 'Houston' }
ENDTASK;
END;
DOLSTATUS=1;
END;
CLOSE cont unit;
DOLEND
`
	out := runProgram(t, dir, src)
	if out.Status != 1 {
		t.Fatalf("DOLSTATUS = %d", out.Status)
	}
	if out.TaskStatus("TC1") != dol.StatusCommitted {
		t.Fatalf("TC1 = %s", out.TaskStatus("TC1"))
	}
	// Compensation restored the fare.
	got := rateOf(t, servers["continental"], "continental", "flights", "rate", 0)
	if got < 99.999 || got > 100.001 {
		t.Errorf("compensated rate = %v", got)
	}
}

// TestParallelTasksOverlap holds the paper's "possible concurrency":
// three independent tasks on sites with a simulated 20 ms service
// latency all commit, and the program takes less wall time than the sum
// of its task bodies, which sequential execution cannot.
func TestParallelTasksOverlap(t *testing.T) {
	dir, servers := airlineFederation(t)
	for _, srv := range servers {
		srv.SetLatency(20 * time.Millisecond)
	}
	src := `
DOLBEGIN
OPEN continental AT site1 AS c1;
OPEN delta AT site2 AS c2;
OPEN united AT site3 AS c3;
TASK T1 FOR c1 { SELECT COUNT(*) FROM flights } ENDTASK;
TASK T2 FOR c2 { SELECT COUNT(*) FROM flight } ENDTASK;
TASK T3 FOR c3 { SELECT COUNT(*) FROM flight } ENDTASK;
CLOSE c1 c2 c3;
DOLEND
`
	start := time.Now()
	out := runProgram(t, dir, src)
	wall := time.Since(start)
	var sum time.Duration
	for _, name := range []string{"T1", "T2", "T3"} {
		if out.TaskStatus(name) != dol.StatusCommitted {
			t.Errorf("%s = %s", name, out.TaskStatus(name))
		}
		sum += out.Tasks[name].Elapsed
	}
	if wall >= sum {
		t.Errorf("program took %v, task bodies sum to %v: the tasks did not overlap", wall, sum)
	}
}

func TestEngineErrors(t *testing.T) {
	dir, _ := airlineFederation(t)
	cases := []string{
		"DOLBEGIN\nOPEN x AT nowhere AS c;\nDOLEND",
		"DOLBEGIN\nTASK T1 FOR nope { SELECT 1 } ENDTASK;\nDOLEND",
		"DOLBEGIN\nCLOSE ghost;\nDOLEND",
		"DOLBEGIN\nCOMMIT T9;\nDOLEND",
		"DOLBEGIN\nOPEN continental AT site1 AS c;\nTASK T2 AFTER T9 FOR c { SELECT 1 } ENDTASK;\nDOLEND",
	}
	for _, src := range cases {
		prog, err := dol.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if _, err := New(dir).Run(context.Background(), prog); err == nil {
			t.Errorf("Run(%q) succeeded, want error", src)
		}
	}
}

func TestAfterChainsObserveOrder(t *testing.T) {
	// T2 AFTER T1 on the same connection: T2's read must observe T1's
	// uncommitted write (same session, same transaction).
	dir, _ := airlineFederation(t)
	out := runProgram(t, dir, `
DOLBEGIN
OPEN continental AT site1 AS c;
TASK T1 FOR c
{ INSERT INTO flights VALUES (500, 'Austin', 'Houston', 42.0) }
ENDTASK;
TASK T2 AFTER T1 FOR c
{ SELECT rate FROM flights WHERE flnu = 500 }
ENDTASK;
CLOSE c;
DOLEND`)
	if out.TaskStatus("T2") != dol.StatusCommitted {
		t.Fatalf("T2 = %s (%v)", out.TaskStatus("T2"), out.Tasks["T2"].Err)
	}
	res := out.Tasks["T2"].Result
	if len(res.Rows) != 1 {
		t.Fatalf("T2 rows = %v", res.Rows)
	}
	if f, _ := res.Rows[0][0].AsFloat(); f != 42 {
		t.Fatalf("rate = %v", f)
	}
}

func TestNestedIf(t *testing.T) {
	dir, _ := airlineFederation(t)
	out := runProgram(t, dir, `
DOLBEGIN
OPEN continental AT site1 AS c;
TASK T1 FOR c { SELECT 1 } ENDTASK;
IF (T1=C) THEN
BEGIN
IF (T1=A) THEN
BEGIN
DOLSTATUS=5;
END;
ELSE
BEGIN
DOLSTATUS=7;
END;
END;
CLOSE c;
DOLEND`)
	if out.Status != 7 {
		t.Fatalf("status = %d", out.Status)
	}
}

func TestTaskOnPreviouslyClosedConnection(t *testing.T) {
	dir, _ := airlineFederation(t)
	prog, err := dol.Parse(`
DOLBEGIN
OPEN continental AT site1 AS c;
CLOSE c;
TASK T1 FOR c { SELECT 1 } ENDTASK;
DOLEND`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := New(dir).Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if out.TaskStatus("T1") != dol.StatusError {
		t.Fatalf("T1 = %s", out.TaskStatus("T1"))
	}
}

func TestOutcomeDefaults(t *testing.T) {
	dir, _ := airlineFederation(t)
	out := runProgram(t, dir, "DOLBEGIN\nOPEN continental AT site1 AS c;\nCLOSE c;\nDOLEND")
	if out.Status != -1 {
		t.Fatalf("default status = %d", out.Status)
	}
	if out.TaskStatus("missing") != dol.StatusNotRun {
		t.Fatal("unknown task should be not-run")
	}
}

func TestTaskResultExposed(t *testing.T) {
	dir, _ := airlineFederation(t)
	out := runProgram(t, dir, `
DOLBEGIN
OPEN continental AT site1 AS c;
TASK T1 FOR c { SELECT flnu, rate FROM flights WHERE source = 'Houston' } ENDTASK;
CLOSE c;
DOLEND`)
	info := out.Tasks["T1"]
	if info == nil || info.Result == nil {
		t.Fatal("missing task result")
	}
	if len(info.Result.Rows) != 1 || info.Database != "continental" {
		t.Fatalf("result = %+v", info)
	}
}
