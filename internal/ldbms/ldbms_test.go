package ldbms

import (
	"errors"
	"testing"
	"time"

	"msql/internal/schema"
	"msql/internal/sqlparser"
)

func newUnited(t testing.TB, p Profile) *Server {
	t.Helper()
	srv := NewServer("united-svc", p, 1)
	if err := srv.CreateDatabase("united"); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.OpenSession("united")
	if err != nil {
		t.Fatal(err)
	}
	setup := []string{
		"CREATE TABLE flight (fn INTEGER, sour CHAR(20), dest CHAR(20), rates FLOAT)",
		"INSERT INTO flight VALUES (1, 'Houston', 'San Antonio', 100.0), (2, 'Houston', 'Dallas', 80.0)",
	}
	for _, q := range setup {
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("setup %q: %v", q, err)
		}
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	return srv
}

func rate(t *testing.T, srv *Server, fn int) float64 {
	t.Helper()
	sess, err := srv.OpenSession("united")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec("SELECT rates FROM flight WHERE fn = 1")
	if err != nil {
		t.Fatal(err)
	}
	f, _ := res.Rows[0][0].AsFloat()
	return f
}

func TestClassOf(t *testing.T) {
	cases := map[string]StmtClass{
		"SELECT * FROM t":                                ClassSelect,
		"EXPLAIN ANALYZE SELECT * FROM t":                ClassSelect,
		"EXPLAIN Update t set x = 1":                     ClassSelect, // plans only
		"EXPLAIN ANALYZE Update t set x = 1 WHERE x = 2": ClassUpdate,
		"EXPLAIN ANALYZE DELETE FROM t":                  ClassDelete,
		"insert into t values (1)":                       ClassInsert,
		"INSERT INTO t SELECT a FROM u":                  ClassInsert,
		"Update t set x = 1":                             ClassUpdate,
		"DELETE FROM t":                                  ClassDelete,
		"CREATE TABLE t (a INTEGER)":                     ClassCreate,
		"CREATE DATABASE d":                              ClassCreate,
		"CREATE VIEW v AS SELECT a FROM t":               ClassCreate,
		"DROP TABLE t":                                   ClassDrop,
		"DROP DATABASE d":                                ClassDrop,
		"DROP VIEW v":                                    ClassDrop,
		"COMMIT":                                         ClassOther,
	}
	for sql, want := range cases {
		stmt, err := sqlparser.ParseStatement(sql)
		if err != nil {
			t.Errorf("parse %q: %v", sql, err)
			continue
		}
		if got := classOf(stmt); got != want {
			t.Errorf("classOf(%q) = %s, want %s", sql, got, want)
		}
	}
}

func TestTwoPCPrepareCommit(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	sess, _ := srv.OpenSession("united")
	if _, err := sess.Exec("UPDATE flight SET rates = rates * 1.1 WHERE sour = 'Houston'"); err != nil {
		t.Fatal(err)
	}
	if sess.State() != StateActive {
		t.Fatalf("state = %s", sess.State())
	}
	if err := sess.Prepare(); err != nil {
		t.Fatal(err)
	}
	if sess.State() != StatePrepared {
		t.Fatalf("state = %s", sess.State())
	}
	// Exec while prepared is refused.
	if _, err := sess.Exec("SELECT 1"); !errors.Is(err, ErrSessionState) {
		t.Fatalf("exec while prepared err = %v", err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := rate(t, srv, 1); got < 109.9 || got > 110.1 {
		t.Fatalf("rate = %v", got)
	}
}

func TestTwoPCPrepareRollback(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	sess, _ := srv.OpenSession("united")
	if _, err := sess.Exec("UPDATE flight SET rates = 999 WHERE fn = 1"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	if sess.State() != StateAborted {
		t.Fatalf("state = %s", sess.State())
	}
	if got := rate(t, srv, 1); got != 100 {
		t.Fatalf("rate = %v", got)
	}
}

func TestAutoCommitOnlyServer(t *testing.T) {
	srv := newUnited(t, ProfileAutoCommitOnly())
	sess, _ := srv.OpenSession("united")
	if _, err := sess.Exec("UPDATE flight SET rates = 120 WHERE fn = 1"); err != nil {
		t.Fatal(err)
	}
	// Statement already durable; state reports committed.
	if sess.State() != StateCommitted {
		t.Fatalf("state = %s", sess.State())
	}
	if err := sess.Prepare(); !errors.Is(err, ErrNoTwoPC) {
		t.Fatalf("prepare err = %v", err)
	}
	// Rollback cannot undo what autocommit made durable.
	sess.Rollback()
	if got := rate(t, srv, 1); got != 120 {
		t.Fatalf("rate = %v", got)
	}
}

func TestIngresLikeDDLAutoCommitsPriorWork(t *testing.T) {
	// The paper's observed quirk: DDL commits itself and all previously
	// issued uncommitted statements.
	srv := newUnited(t, ProfileIngresLike())
	srv.ResetStats()
	sess, _ := srv.OpenSession("united")
	if _, err := sess.Exec("UPDATE flight SET rates = 500 WHERE fn = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("CREATE TABLE side (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if sess.State() != StateCommitted {
		t.Fatalf("state after DDL = %s", sess.State())
	}
	// Rollback after the DDL autocommit is a no-op for the prior update.
	sess.Rollback()
	if got := rate(t, srv, 1); got != 500 {
		t.Fatalf("rate = %v (DDL should have dragged the update to durability)", got)
	}
	st := srv.Stats()
	if st.SilentCommits != 1 {
		t.Fatalf("silent commits = %d", st.SilentCommits)
	}
}

func TestOracleLikeDDLRollsBack(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	sess, _ := srv.OpenSession("united")
	if _, err := sess.Exec("CREATE TABLE side (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	sess2, _ := srv.OpenSession("united")
	defer sess2.Close()
	if _, err := sess2.Exec("SELECT a FROM side"); err == nil {
		t.Fatal("side table survived rollback on a DDL-rollback profile")
	}
}

func TestNoConnectServer(t *testing.T) {
	srv := NewServer("syb", ProfileSybaseLike(), 1)
	if err := srv.CreateDatabase("main"); err != nil {
		t.Fatal(err)
	}
	if err := srv.CreateDatabase("other"); !errors.Is(err, ErrNoConnect) {
		t.Fatalf("second db err = %v", err)
	}
	if _, err := srv.OpenSession("other"); !errors.Is(err, ErrNoConnect) {
		t.Fatalf("open other err = %v", err)
	}
	// Empty database name connects to the default.
	sess, err := srv.OpenSession("")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Database() != "main" {
		t.Fatalf("db = %s", sess.Database())
	}
	if srv.DefaultDatabase() != "main" {
		t.Fatalf("default = %s", srv.DefaultDatabase())
	}
}

func TestExecErrorAbortsTransaction(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	sess, _ := srv.OpenSession("united")
	if _, err := sess.Exec("UPDATE flight SET rates = 999 WHERE fn = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("SELECT * FROM missing_table"); err == nil {
		t.Fatal("expected error")
	}
	if sess.State() != StateAborted {
		t.Fatalf("state = %s", sess.State())
	}
	if got := rate(t, srv, 1); got != 100 {
		t.Fatalf("rate = %v, prior update should be gone", got)
	}
}

func TestFaultInjectionExec(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	srv.Faults().Add(FaultRule{Op: FaultExec, Database: "united"})
	sess, _ := srv.OpenSession("united")
	_, err := sess.Exec("SELECT 1")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
	// One-shot: next exec succeeds.
	if _, err := sess.Exec("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if srv.Faults().Fired() != 1 {
		t.Fatalf("fired = %d", srv.Faults().Fired())
	}
}

func TestFaultInjectionPrepareAndCommit(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	srv.Faults().Add(FaultRule{Op: FaultPrepare, Database: "united"})
	sess, _ := srv.OpenSession("united")
	sess.Exec("UPDATE flight SET rates = 1 WHERE fn = 1")
	if err := sess.Prepare(); !errors.Is(err, ErrInjected) {
		t.Fatalf("prepare err = %v", err)
	}
	if sess.State() != StateAborted {
		t.Fatalf("state = %s", sess.State())
	}
	if got := rate(t, srv, 1); got != 100 {
		t.Fatalf("rate = %v", got)
	}

	srv.Faults().Add(FaultRule{Op: FaultCommit, Database: "united"})
	sess2, _ := srv.OpenSession("united")
	sess2.Exec("UPDATE flight SET rates = 2 WHERE fn = 1")
	if err := sess2.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("commit err = %v", err)
	}
	if got := rate(t, srv, 1); got != 100 {
		t.Fatalf("rate = %v", got)
	}
}

func TestFaultSkipCountsDown(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	srv.Faults().Add(FaultRule{Op: FaultExec, Skip: 2})
	sess, _ := srv.OpenSession("united")
	for i := 0; i < 2; i++ {
		if _, err := sess.Exec("SELECT 1"); err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
	}
	if _, err := sess.Exec("SELECT 1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("third exec err = %v", err)
	}
}

func TestFaultSticky(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	srv.Faults().Add(FaultRule{Op: FaultExec, Sticky: true})
	sess, _ := srv.OpenSession("united")
	for i := 0; i < 3; i++ {
		if _, err := sess.Exec("SELECT 1"); !errors.Is(err, ErrInjected) {
			t.Fatalf("exec %d err = %v", i, err)
		}
	}
	srv.Faults().Clear()
	if _, err := sess.Exec("SELECT 1"); err != nil {
		t.Fatal(err)
	}
}

func TestFaultProbabilisticOneShot(t *testing.T) {
	// A non-sticky probabilistic rule must be removed after its first
	// firing — it used to keep firing forever regardless of Sticky.
	f := NewFaultInjector(1)
	f.Add(FaultRule{Op: FaultExec, Probability: 1.0})
	if err := f.Check(FaultExec, "db"); !errors.Is(err, ErrInjected) {
		t.Fatalf("first check err = %v, want ErrInjected", err)
	}
	for i := 0; i < 5; i++ {
		if err := f.Check(FaultExec, "db"); err != nil {
			t.Fatalf("check %d after one-shot fired: %v", i, err)
		}
	}
	if got := f.Fired(); got != 1 {
		t.Fatalf("fired = %d, want 1", got)
	}

	// Sticky keeps a probabilistic rule installed.
	f.Add(FaultRule{Op: FaultExec, Probability: 1.0, Sticky: true})
	for i := 0; i < 3; i++ {
		if err := f.Check(FaultExec, "db"); !errors.Is(err, ErrInjected) {
			t.Fatalf("sticky check %d err = %v", i, err)
		}
	}
}

func TestFaultProbabilisticDeterministicSeed(t *testing.T) {
	count := func() int {
		f := NewFaultInjector(42)
		f.Add(FaultRule{Op: FaultExec, Probability: 0.5, Sticky: true})
		n := 0
		for i := 0; i < 100; i++ {
			if err := f.Check(FaultExec, "db"); err != nil {
				n++
			}
		}
		return n
	}
	a, b := count(), count()
	if a != b {
		t.Fatalf("same seed diverged: %d vs %d", a, b)
	}
	if a < 30 || a > 70 {
		t.Fatalf("suspicious fire rate %d/100 for p=0.5", a)
	}
}

func TestSessionTransactionControlStatements(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	sess, _ := srv.OpenSession("united")
	if _, err := sess.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	sess.Exec("UPDATE flight SET rates = 7 WHERE fn = 1")
	if _, err := sess.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if got := rate(t, srv, 1); got != 100 {
		t.Fatalf("rate = %v", got)
	}
	sess.Exec("UPDATE flight SET rates = 7 WHERE fn = 1")
	if _, err := sess.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}
	if got := rate(t, srv, 1); got != 7 {
		t.Fatalf("rate = %v", got)
	}
}

func TestDescribeAndList(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	sess, _ := srv.OpenSession("united")
	defer sess.Close()
	cols, err := sess.Describe("flight")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 4 || cols[1].Name != "sour" {
		t.Fatalf("cols = %+v", cols)
	}
	tables, err := sess.ListTables()
	if err != nil || len(tables) != 1 || tables[0] != "flight" {
		t.Fatalf("tables = %v, %v", tables, err)
	}
	if _, err := sess.Describe("missing"); !errors.Is(err, schema.ErrNoTable) {
		t.Fatalf("describe missing err = %v", err)
	}
	views, err := sess.ListViews()
	if err != nil || len(views) != 0 {
		t.Fatalf("views = %v, %v", views, err)
	}
}

func TestStatsCounters(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	srv.ResetStats()
	sess, _ := srv.OpenSession("united")
	sess.Exec("SELECT 1")
	sess.Exec("UPDATE flight SET rates = 1 WHERE fn = 1")
	sess.Prepare()
	sess.Commit()
	st := srv.Stats()
	if st.Execs != 2 || st.Prepares != 1 || st.Commits != 1 || st.Rollbacks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPrepareWithNoPendingWork(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	sess, _ := srv.OpenSession("united")
	if err := sess.Prepare(); err != nil {
		t.Fatal(err)
	}
	if sess.State() != StatePrepared {
		t.Fatalf("state = %s", sess.State())
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulatedLatency(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	srv.SetLatency(20 * time.Millisecond)
	sess, _ := srv.OpenSession("united")
	defer sess.Close()
	start := time.Now()
	if _, err := sess.Exec("SELECT 1"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 18*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
	// Prepare and commit rounds also pay latency.
	sess.Exec("UPDATE flight SET rates = 1 WHERE fn = 1")
	start = time.Now()
	sess.Prepare()
	sess.Commit()
	if elapsed := time.Since(start); elapsed < 36*time.Millisecond {
		t.Fatalf("prepare/commit latency not applied: %v", elapsed)
	}
	srv.SetLatency(0)
	start = time.Now()
	sess.Exec("SELECT 1")
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Fatalf("latency not cleared: %v", elapsed)
	}
}

func TestProfileAccessors(t *testing.T) {
	srv := newUnited(t, ProfileIngresLike())
	if srv.Name() != "united-svc" {
		t.Fatalf("name = %s", srv.Name())
	}
	p := srv.Profile()
	if p.Name != "ingres-like" || !p.AutoCommits(ClassCreate) {
		t.Fatalf("profile = %+v", p)
	}
	// Profile() returns a copy.
	p.AutoCommitClasses[ClassUpdate] = true
	if srv.Profile().AutoCommits(ClassUpdate) {
		t.Fatal("Profile returned shared state")
	}
	if dbs := srv.Databases(); len(dbs) != 1 || dbs[0] != "united" {
		t.Fatalf("dbs = %v", dbs)
	}
	for _, s := range []SessionState{StateIdle, StateActive, StatePrepared, StateCommitted, StateAborted} {
		if s.String() == "" {
			t.Fatal("empty state name")
		}
	}
	for _, c := range []StmtClass{ClassSelect, ClassInsert, ClassUpdate, ClassDelete, ClassCreate, ClassDrop, ClassOther} {
		if c.String() == "" {
			t.Fatal("empty class name")
		}
	}
	for _, op := range []FaultOp{FaultExec, FaultPrepare, FaultCommit} {
		if op.String() == "" {
			t.Fatal("empty op name")
		}
	}
}

func TestSessionLockTimeout(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	a, _ := srv.OpenSession("united")
	b, _ := srv.OpenSession("united")
	defer a.Close()
	defer b.Close()
	b.SetLockTimeout(50 * time.Millisecond)
	if _, err := a.Exec("UPDATE flight SET rates = 1 WHERE fn = 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("UPDATE flight SET rates = 2 WHERE fn = 1"); !errors.Is(err, schema.ErrLockTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestOpenSessionErrors(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	if _, err := srv.OpenSession("nope"); !errors.Is(err, schema.ErrNoDatabase) {
		t.Fatalf("err = %v", err)
	}
}
