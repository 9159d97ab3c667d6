package lam

import (
	"encoding/gob"
	"net"
	"testing"

	"msql/internal/ldbms"
	"msql/internal/sqlval"
	"msql/internal/wire"
)

// served snapshots the server-side request counter of each op named.
func served(ops ...string) map[string]int64 {
	out := make(map[string]int64, len(ops))
	for _, op := range ops {
		out[op] = mServerRequests.With(op).Value()
	}
	return out
}

// expectServed fails unless each op of before was served want[op] times
// since before was taken.
func expectServed(t *testing.T, before, want map[string]int64) {
	t.Helper()
	for op, n := range before {
		if got := mServerRequests.With(op).Value() - n; got != want[op] {
			t.Errorf("%s: %d requests, want %d", op, got, want[op])
		}
	}
}

func flightRows(t *testing.T, srv *ldbms.Server) int {
	t.Helper()
	s, err := srv.OpenSession("delta")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Exec("SELECT fnu FROM flight")
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Rows)
}

// TestExecCarriesItsEnding: the exec whose context names the ending
// commits or votes in its own request, and the Commit or Prepare that
// follows answers from its reply. A vote rides only a request whose
// session id the client knew before sending, so a session's first vote
// on a fresh connection goes out on its own.
func TestExecCarriesItsEnding(t *testing.T) {
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
	ops := []string{"exec", "exec+commit", "exec+prepare", "prepare", "commit"}

	vote := func(want map[string]int64) {
		t.Helper()
		sess, err := c.Open(bg, "delta")
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		before := served(ops...)
		if _, err := sess.Exec(WithEnding(bg, wire.ReqPrepare), "UPDATE flight SET rate = rate + 1 WHERE fnu = 10"); err != nil {
			t.Fatal(err)
		}
		if err := sess.Prepare(bg); err != nil {
			t.Fatal(err)
		}
		expectServed(t, before, want)
		if st, err := sessionState(sess); err != nil || st != ldbms.StatePrepared {
			t.Fatalf("state = %v, %v; want prepared", st, err)
		}
		if err := sess.Commit(bg); err != nil {
			t.Fatal(err)
		}
	}
	vote(map[string]int64{"exec": 1, "prepare": 1}) // fresh connection
	vote(map[string]int64{"exec+prepare": 1})       // pooled: the id is known
	if got := ts.Tombstones(); got != 2 {
		t.Fatalf("%d outcome tombstones, want one per vote", got)
	}

	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	before := served(ops...)
	if _, err := sess.Exec(WithEnding(bg, wire.ReqCommit), "INSERT INTO flight VALUES (12, 'Dallas', 'Austin', 80.0)"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(bg); err != nil {
		t.Fatal(err)
	}
	expectServed(t, before, map[string]int64{"exec+commit": 1})
	if got := flightRows(t, srv); got != 3 {
		t.Fatalf("%d rows after the exec+commit, want 3", got)
	}
}

// TestFailedExecRunsNoEnding: a statement that fails takes its ending
// with it. A statement that does not parse leaves the transaction open,
// so an ending run anyway would commit or vote the insert before it.
func TestFailedExecRunsNoEnding(t *testing.T) {
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
	useAndClose(t, c) // the pooled connection knows the next session's id

	for _, end := range []wire.ReqKind{wire.ReqCommit, wire.ReqPrepare} {
		sess, err := c.Open(bg, "delta")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Exec(bg, "INSERT INTO flight VALUES (12, 'Dallas', 'Austin', 80.0)"); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Exec(WithEnding(bg, end), "UPDATE WHERE"); err == nil {
			t.Fatalf("%s: exec of a statement that does not parse succeeded", end)
		}
		if st, err := sessionState(sess); err != nil || st != ldbms.StateActive {
			t.Fatalf("%s: state after the failed exec = %v, %v; want active", end, st, err)
		}
		if err := sess.Rollback(bg); err != nil {
			t.Fatal(err)
		}
		if got := flightRows(t, srv); got != 2 {
			t.Fatalf("%s: %d rows, want the seed's 2", end, got)
		}
		sess.Close()
	}
	if ids := ts.InDoubt(); len(ids) != 0 || ts.Tombstones() != 0 {
		t.Fatalf("in doubt %v, %d tombstones: a failed exec voted", ids, ts.Tombstones())
	}
}

// TestServerRefusesMisplacedEnding: an ending on a request that is not
// an exec, or one that is neither a commit nor a vote, is refused before
// the server acts on anything the request carries — its load, its
// statement, its CloseFirst or its Open.
func TestServerRefusesMisplacedEnding(t *testing.T) {
	srv := deltaServer(t)
	ts, err := Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	conn, err := net.Dial("tcp", ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	send := func(req *wire.Request) *wire.Response {
		t.Helper()
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	}
	insert := "INSERT INTO flight VALUES (12, 'Dallas', 'Austin', 80.0)"
	resp := send(&wire.Request{Kind: wire.ReqExec, Open: true, Database: "delta", SQL: insert})
	if err := resp.Err(); err != nil {
		t.Fatal(err)
	}
	id := resp.SessionID

	for _, req := range []*wire.Request{
		{Kind: wire.ReqLoad, SessionID: id, CloseFirst: id, Name: "flight", Then: wire.ReqCommit,
			Rows: [][]sqlval.Value{{sqlval.Int(13), sqlval.Str("Waco"), sqlval.Str("Austin"), sqlval.Float(70)}}},
		{Kind: wire.ReqExec, SessionID: id, CloseFirst: id, SQL: insert, Then: wire.ReqKind(200)},
		{Kind: wire.ReqExec, Open: true, Database: "delta", SQL: insert, Then: wire.ReqRollback},
	} {
		resp := send(req)
		if resp.Err() == nil || resp.SessionID != 0 {
			t.Fatalf("%s: err = %v, session %d; want a refusal that opened nothing", req.Op(), resp.Err(), resp.SessionID)
		}
	}
	if resp := send(&wire.Request{Kind: wire.ReqState, SessionID: id}); resp.Err() != nil || ldbms.SessionState(resp.State) != ldbms.StateActive {
		t.Fatalf("session after the refusals: state %v, err %v; want still active", resp.State, resp.Err())
	}
	if resp := send(&wire.Request{Kind: wire.ReqCommit, SessionID: id}); resp.Err() != nil {
		t.Fatal(resp.Err())
	}
	if got := flightRows(t, srv); got != 3 {
		t.Fatalf("%d rows, want the seed's 2 plus the one accepted insert", got)
	}
	if ids := ts.InDoubt(); len(ids) != 0 || ts.Tombstones() != 0 {
		t.Fatalf("in doubt %v, %d tombstones after the refusals", ids, ts.Tombstones())
	}
}
