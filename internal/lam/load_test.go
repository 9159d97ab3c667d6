package lam

import (
	"errors"
	"reflect"
	"testing"

	"msql/internal/ldbms"
	"msql/internal/schema"
	"msql/internal/sqlval"
)

// fidelityRows are flight rows whose values SQL text mangles or
// mis-types when it carries them: quotes, newlines, non-ASCII, NULLs, an
// empty string, and floats strconv prints with an exponent.
func fidelityRows() [][]sqlval.Value {
	return [][]sqlval.Value{
		{sqlval.Int(20), sqlval.Str("O'Hare"), sqlval.Str("line\nbreak"), sqlval.Float(1e-5)},
		{sqlval.Int(21), sqlval.Str("Zürich ✈"), sqlval.Null(), sqlval.Float(-2.5e-7)},
		{sqlval.Int(22), sqlval.Str(""), sqlval.Str("''"), sqlval.Float(1.7976931348623157e308)},
		{sqlval.Int(23), sqlval.Null(), sqlval.Null(), sqlval.Float(5e-324)},
		{sqlval.Int(24), sqlval.Null(), sqlval.Null(), sqlval.Float(1e21)},
		{sqlval.Int(25), sqlval.Null(), sqlval.Null(), sqlval.Null()},
	}
}

// runLoadSuite exercises Session.Load on one transport.
func runLoadSuite(t *testing.T, c Client) {
	t.Helper()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	rows := fidelityRows()
	n, err := sess.Load(bg, "flight", rows)
	if err != nil || n != len(rows) {
		t.Fatalf("load = %d, %v", n, err)
	}
	res, err := sess.Exec(bg, "SELECT fnu, source, dest, rate FROM flight WHERE fnu >= 20 ORDER BY fnu")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, rows) {
		t.Fatalf("loaded rows read back as\n %v\nwant\n %v", res.Rows, rows)
	}
	// An INT headed for the FLOAT column is coerced by the one insert
	// path, not stored as it came.
	if _, err := sess.Load(bg, "flight", [][]sqlval.Value{{sqlval.Int(30), sqlval.Null(), sqlval.Null(), sqlval.Int(7)}}); err != nil {
		t.Fatal(err)
	}
	if res, err := sess.Exec(bg, "SELECT rate FROM flight WHERE fnu = 30"); err != nil || res.Rows[0][0] != sqlval.Float(7) {
		t.Fatalf("rate = %v, %v; want FLOAT 7", res, err)
	}
	if err := sess.Rollback(bg); err != nil {
		t.Fatal(err)
	}

	// Sentinels survive, and a failed load has aborted the transaction.
	if _, err := sess.Exec(bg, "UPDATE flight SET rate = 1 WHERE fnu = 10"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Load(bg, "nosuch", rows); !errors.Is(err, schema.ErrNoTable) {
		t.Fatalf("unknown table: err = %v", err)
	}
	if st, _ := sessionState(sess); st != ldbms.StateAborted {
		t.Fatalf("state after failed load = %s, want aborted", st)
	}
	if res, err := sess.Exec(bg, "SELECT rate FROM flight WHERE fnu = 10"); err != nil || res.Rows[0][0] != sqlval.Float(150) {
		t.Fatalf("rate = %v, %v: the update before the failed load survived", res, err)
	}
	if err := sess.Rollback(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Load(bg, "flight", rows[:1]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Prepare(bg); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Load(bg, "flight", rows[1:2]); !errors.Is(err, ldbms.ErrSessionState) {
		t.Fatalf("load while prepared: err = %v, want ErrSessionState", err)
	}
	if err := sess.Rollback(bg); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteLoad(t *testing.T) {
	srv := deltaServer(t)
	ts, err := Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := mCallLatency.With(ts.Addr(), "load").Count()
	served := mServerRequests.With("load").Value()
	runLoadSuite(t, c)
	// Five loads went over the wire; the session refused the last (it was
	// prepared) and the backend failed one: "load" is an op label like any
	// other.
	if got := mCallLatency.With(ts.Addr(), "load").Count() - before; got != 5 {
		t.Errorf("msql_site_call_seconds{op=load} grew by %d, want 5", got)
	}
	if got := mServerRequests.With("load").Value() - served; got != 5 {
		t.Errorf("msql_server_requests_total{op=load} grew by %d, want 5", got)
	}
	if st := srv.Stats(); st.Loads != 4 || st.LoadedRows != int64(len(fidelityRows()))+2 {
		t.Errorf("stats = %+v, want 4 loads at the backend and the rows of the 3 that succeeded", st)
	}
}
