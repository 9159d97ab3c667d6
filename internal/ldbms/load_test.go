package ldbms

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"msql/internal/schema"
	"msql/internal/sqlval"
)

func flightRows(fns ...int64) [][]sqlval.Value {
	rows := make([][]sqlval.Value, len(fns))
	for i, fn := range fns {
		rows[i] = []sqlval.Value{sqlval.Int(fn), sqlval.Str("Austin"), sqlval.Str("O'Hare"), sqlval.Int(90)}
	}
	return rows
}

func countFlights(t *testing.T, sess *Session) int64 {
	t.Helper()
	res, err := sess.Exec("SELECT COUNT(*) FROM flight")
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows[0][0].I
}

// TestLoadIsAnInsertWithoutTheText: Load runs inside the session's
// transaction like a statement — begun on demand, counted on its own
// counters, undone by rollback — and goes through the backend's insert
// semantics (the INT rate lands in the FLOAT column as a float).
func TestLoadIsAnInsertWithoutTheText(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	srv.ResetStats()
	sess, _ := srv.OpenSession("united")
	defer sess.Close()

	if n, err := sess.Load("flight", nil); n != 0 || err != nil || sess.State() != StateIdle {
		t.Fatalf("empty load = %d, %v in state %s; want a no-op", n, err, sess.State())
	}
	n, err := sess.Load("flight", flightRows(10, 11, 12))
	if err != nil || n != 3 {
		t.Fatalf("load = %d, %v", n, err)
	}
	if sess.State() != StateActive {
		t.Fatalf("state = %s, want active", sess.State())
	}
	res, err := sess.Exec("SELECT rates FROM flight WHERE fn = 11")
	if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != sqlval.Float(90) {
		t.Fatalf("loaded rate = %v, %v; want FLOAT 90", res, err)
	}
	if st := srv.Stats(); st.Loads != 1 || st.LoadedRows != 3 || st.Execs != 1 {
		t.Fatalf("stats = %+v, want 1 load of 3 rows beside 1 exec", st)
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := countFlights(t, sess); got != 2 {
		t.Fatalf("%d flights after rollback, want the 2 committed ones", got)
	}
}

// TestLoadGating: the rules execStmt applies to a statement apply to a
// load — refused while prepared, hit by FaultExec, and a failure aborts
// the whole open transaction, earlier work included.
func TestLoadGating(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	sess, _ := srv.OpenSession("united")
	defer sess.Close()

	// Refused while prepared, and the prepared work is untouched by it.
	if _, err := sess.Load("flight", flightRows(20)); err != nil {
		t.Fatal(err)
	}
	if err := sess.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Load("flight", flightRows(21)); !errors.Is(err, ErrSessionState) {
		t.Fatalf("load while prepared: err = %v, want ErrSessionState", err)
	}
	if sess.State() != StatePrepared {
		t.Fatalf("state = %s after the refused load", sess.State())
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}

	// A failed load aborts the open transaction like a failed Exec.
	if _, err := sess.Exec("UPDATE flight SET rates = 1 WHERE fn = 1"); err != nil {
		t.Fatal(err)
	}
	bad := [][]sqlval.Value{{sqlval.Int(30), sqlval.Str("a"), sqlval.Str("b"), sqlval.Float(1)}, {sqlval.Int(31)}}
	if n, err := sess.Load("flight", bad); err == nil || n != 0 {
		t.Fatalf("short row: load = %d, %v", n, err)
	}
	if sess.State() != StateAborted {
		t.Fatalf("state = %s, want aborted", sess.State())
	}
	if got := rate(t, srv, 1); got != 100 {
		t.Fatalf("rate = %v: the update before the failed load survived", got)
	}
	if _, err := sess.Load("nosuch", flightRows(32)); !errors.Is(err, schema.ErrNoTable) {
		t.Fatalf("unknown table: err = %v", err)
	}

	// FaultExec covers loads.
	srv.Faults().Add(FaultRule{Op: FaultExec, Database: "united"})
	if _, err := sess.Load("flight", flightRows(33)); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if got := countFlights(t, sess); got != 3 {
		t.Fatalf("%d flights, want 3 (two seeded, one committed load)", got)
	}
}

// TestLoadAutocommitsAsInsert: a server that commits INSERTs on its own
// commits a load on its own.
func TestLoadAutocommitsAsInsert(t *testing.T) {
	srv := newUnited(t, ProfileAutoCommitOnly())
	srv.ResetStats()
	sess, _ := srv.OpenSession("united")
	defer sess.Close()
	if _, err := sess.Load("flight", flightRows(40, 41)); err != nil {
		t.Fatal(err)
	}
	if sess.State() != StateCommitted {
		t.Fatalf("state = %s, want committed", sess.State())
	}
	if st := srv.Stats(); st.SilentCommits != 1 {
		t.Fatalf("stats = %+v, want one silent commit", st)
	}
	sess.Rollback()
	if got := countFlights(t, sess); got != 4 {
		t.Fatalf("%d flights: the autocommitted load did not stay", got)
	}
}

// TestLoadRedoRendersOnDemand: a loaded batch is kept as rows and
// becomes INSERT text only when Redo is called; replaying that text on a
// fresh session rebuilds the same rows, quotes and exponent floats
// included.
func TestLoadRedoRendersOnDemand(t *testing.T) {
	srv := newUnited(t, ProfileOracleLike())
	sess, _ := srv.OpenSession("united")
	defer sess.Close()
	rows := [][]sqlval.Value{
		{sqlval.Int(50), sqlval.Str("it's"), sqlval.Null(), sqlval.Float(1e-5)},
		{sqlval.Int(51), sqlval.Str("line\nbreak"), sqlval.Str("Ünïcode"), sqlval.Float(-2.5e-7)},
	}
	if _, err := sess.Exec("DELETE FROM flight WHERE fn = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Load("flight", rows); err != nil {
		t.Fatal(err)
	}
	redo := sess.Redo()
	if len(redo) != 2 || redo[0] != "DELETE FROM flight WHERE fn = 2" || !strings.HasPrefix(redo[1], "INSERT INTO flight VALUES (50, 'it''s', NULL, 1e-05), (51, ") {
		t.Fatalf("redo = %q", redo)
	}
	want, err := sess.Exec("SELECT * FROM flight")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	if redo := sess.Redo(); len(redo) != 0 {
		t.Fatalf("redo after rollback = %q", redo)
	}

	replay, _ := srv.OpenSession("united")
	defer replay.Close()
	for _, q := range redo {
		if _, err := replay.Exec(q); err != nil {
			t.Fatalf("replay %q: %v", q, err)
		}
	}
	got, err := replay.Exec("SELECT * FROM flight")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != 3 || !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("replayed rows\n got %v\nwant %v", got.Rows, want.Rows)
	}
}
