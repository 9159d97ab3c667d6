package ldbms

import (
	"errors"
	"reflect"
	"testing"

	"msql/internal/schema"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// TestTempDDLKeepsIngresTransactionOpen: on an Ingres-like server a
// CREATE TABLE commits the open transaction, but temporary-table DDL is
// a class of its own that a 2PC server never autocommits. The whole
// transfer — temporary table, loaded rows, INSERT ... SELECT out of it,
// DROP — stays one open transaction, and its redo holds the temporary
// CREATE and the loaded rows a replay needs before the INSERT reads
// them.
func TestTempDDLKeepsIngresTransactionOpen(t *testing.T) {
	srv := newUnited(t, ProfileIngresLike())
	sess, _ := srv.OpenSession("united")
	defer sess.Close()
	steps := []string{
		"UPDATE flight SET rates = 90.0 WHERE fn = 2",
		"CREATE TEMPORARY TABLE mtmp_x (fn INTEGER, sour CHAR(20), dest CHAR(20), rates FLOAT)",
	}
	for _, q := range steps {
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if sess.State() != StateActive {
			t.Fatalf("after %q: state %s, want the transaction still open", q, sess.State())
		}
	}
	if _, err := sess.Load("mtmp_x", flightRows(10, 11)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"INSERT INTO flight SELECT fn, sour, dest, rates FROM mtmp_x", "DROP TABLE mtmp_x"} {
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if sess.State() != StateActive {
		t.Fatalf("after the temporary DROP: state %s, want the transaction still open", sess.State())
	}
	want := []string{
		"UPDATE flight SET rates = 90.0 WHERE fn = 2",
		"CREATE TEMPORARY TABLE mtmp_x (fn INTEGER, sour CHAR(20), dest CHAR(20), rates FLOAT)",
		"INSERT INTO mtmp_x VALUES (10, 'Austin', 'O''Hare', 90), (11, 'Austin', 'O''Hare', 90)",
		"INSERT INTO flight SELECT fn, sour, dest, rates FROM mtmp_x",
		"DROP TABLE mtmp_x",
	}
	if redo := sess.Redo(); !reflect.DeepEqual(redo, want) {
		t.Fatalf("redo\n %q\nwant\n %q", redo, want)
	}
	if err := sess.Prepare(); err != nil {
		t.Fatal(err)
	}

	// The redo replays on a fresh session to the same transaction.
	replay := newUnited(t, ProfileIngresLike())
	rs, _ := replay.OpenSession("united")
	defer rs.Close()
	for _, q := range want {
		if _, err := rs.Exec(q); err != nil {
			t.Fatalf("replay %s: %v", q, err)
		}
	}
	if err := rs.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := countFlights(t, rs); got != 4 {
		t.Fatalf("%d flights after replay, want 2 + 2 loaded", got)
	}

	// A base table's DROP is still catalog DDL and commits.
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"CREATE TABLE scratch (a INTEGER)", "INSERT INTO flight VALUES (3, 'A', 'B', 1.0)", "DROP TABLE scratch"} {
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if sess.State() != StateCommitted {
		t.Fatalf("after a base DROP: state %s, want committed", sess.State())
	}
}

// TestTempTablesArePrivate: a temporary table is seen by the session
// that created it and by nothing else — not another session, not the
// table list, not Describe (so not IMPORT). It shadows a base table of
// its name, survives a rollback, and goes with the session.
func TestTempTablesArePrivate(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	a, _ := srv.OpenSession("united")
	b, _ := srv.OpenSession("united")
	defer a.Close()
	defer b.Close()
	mustExec := func(s *Session, q string) {
		t.Helper()
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec(a, "CREATE TEMPORARY TABLE flight (fn INTEGER, rates FLOAT)")
	mustExec(a, "INSERT INTO flight VALUES (7, 1.5), (8, 2.5), (9, 3.5)")
	mustExec(a, "UPDATE flight SET rates = 0.5 WHERE fn = 8")
	mustExec(a, "DELETE FROM flight WHERE fn = 7")
	res, err := a.Exec("SELECT fn, rates FROM flight ORDER BY fn")
	if err != nil || len(res.Rows) != 2 || res.Rows[0][0].I != 8 || res.Rows[0][1].F != 0.5 || res.Rows[1][0].I != 9 {
		t.Fatalf("temporary rows = %v, %v; want (8, 0.5), (9, 3.5)", res, err)
	}
	if got := countFlights(t, b); got != 2 {
		t.Fatalf("another session sees %d flights, want the 2 base rows", got)
	}
	mustExec(b, "CREATE TEMPORARY TABLE flight (fn INTEGER, rates FLOAT)")
	if got := countFlights(t, b); got != 0 {
		t.Fatalf("a second session's own temporary flight holds %d rows, want 0", got)
	}
	if _, err := a.Exec("CREATE TEMPORARY TABLE flight (x INTEGER)"); !errors.Is(err, schema.ErrTableExists) {
		t.Fatalf("second temporary flight in one session: %v, want ErrTableExists", err)
	}
	if names, _ := a.ListTables(); !reflect.DeepEqual(names, []string{"flight"}) {
		t.Fatalf("tables = %v", names)
	}
	if desc, err := a.Describe("flight"); err != nil || len(desc.Columns) != 4 || desc.Rows != 2 {
		t.Fatalf("Describe = %+v, %v; want the base table", desc, err)
	}
	mustExec(a, "ROLLBACK")
	if got := countFlights(t, a); got != 2 {
		t.Fatalf("%d temporary rows after rollback, want 2: temporary tables are not transactional", got)
	}
	mustExec(a, "DROP TABLE flight")
	if got := countFlights(t, a); got != 2 {
		t.Fatalf("after dropping the temporary table the session sees %d flights, want the 2 base rows", got)
	}
	mustExec(b, "INSERT INTO flight VALUES (1, 1.0)")
	b.Close()
	if b.temps.Holds("united", sqlparser.Name("flight")) {
		t.Fatal("Close kept the session's temporary table")
	}
	if _, err := a.Exec("CREATE TEMPORARY TABLE nodb.t (a INTEGER)"); !errors.Is(err, schema.ErrNoDatabase) {
		t.Fatalf("temporary table in a missing database: %v, want ErrNoDatabase", err)
	}
}

// TestTempTableOnAutocommitCSV: an autocommit-only server commits
// temporary-table DDL as it commits any statement, and its csv engine
// keeps temporary tables as it keeps them for relstore — in memory, no
// file.
func TestTempTableOnAutocommitCSV(t *testing.T) {
	srv, err := Open(Spec{Service: "csv", Profile: ProfileAutoCommitOnly(), Backend: BackendCSV,
		Dir: t.TempDir(), DB: "regional"})
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := srv.OpenSession("regional")
	defer sess.Close()
	if _, err := sess.Exec("CREATE TEMPORARY TABLE mtmp_r (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if sess.State() != StateCommitted || len(sess.Redo()) != 0 {
		t.Fatalf("state %s, redo %v; want an autocommit", sess.State(), sess.Redo())
	}
	if _, err := sess.Load("mtmp_r", [][]sqlval.Value{{sqlval.Int(1)}, {sqlval.Int(2)}}); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec("SELECT SUM(a) FROM mtmp_r")
	if err != nil || res.Rows[0][0].I != 3 {
		t.Fatalf("sum = %v, %v", res, err)
	}
	if names, _ := sess.ListTables(); len(names) != 0 {
		t.Fatalf("tables = %v, want none", names)
	}
}
