package core

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/wire"
)

// parkOrphan drives a raw wire conversation against a LAM: open a
// session, execute stmts, prepare carrying mtid, then drop the
// connection without a word — exactly what a coordinator crash after
// the vote looks like from the participant's side. Returns the parked
// session's id.
func parkOrphan(t *testing.T, addr string, db string, mtid uint64, stmts ...string) int64 {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	call := func(req *wire.Request) *wire.Response {
		t.Helper()
		if err := enc.Encode(req); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.ErrMsg != "" {
			t.Fatalf("%s: %s", req.Kind, resp.ErrMsg)
		}
		return &resp
	}
	// The session's first request opens it (wire.Request.Open).
	var sid int64
	send := func(req *wire.Request) {
		t.Helper()
		req.SessionID = sid
		if sid == 0 {
			req.Open, req.Database = true, db
		}
		if resp := call(req); sid == 0 {
			sid = resp.SessionID
		}
	}
	for _, q := range stmts {
		send(&wire.Request{Kind: wire.ReqExec, SQL: q})
	}
	send(&wire.Request{Kind: wire.ReqPrepare, MTID: mtid})
	conn.Close() // the "crash": no decision, no close-session
	return sid
}

// waitParked polls until the server has parked n in-doubt sessions (the
// park happens in the connection handler's cleanup, after the client's
// close is noticed).
func waitParked(t *testing.T, ts *lam.TCPServer, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(ts.InDoubt()) != n {
		if time.Now().After(deadline) {
			t.Fatalf("parked sessions = %d, want %d", len(ts.InDoubt()), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func orphanFederation(t *testing.T, addr string) *Federation {
	t.Helper()
	fed := New()
	fed.SetRecovery(lam.RetryPolicy{Attempts: 2, BaseDelay: 5 * time.Millisecond,
		MaxDelay: 20 * time.Millisecond}, time.Second)
	setup := fmt.Sprintf(`
INCORPORATE SERVICE svc_orph SITE '%s' CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE orphdb FROM SERVICE svc_orph;
`, addr)
	if _, err := fed.ExecScript(setup); err != nil {
		t.Fatal(err)
	}
	j, err := mtlog.Open(filepath.Join(t.TempDir(), "coord.journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	fed.SetJournal(j)
	return fed
}

// TestRecoverSweepsUnjournaledPrepared covers the crash window the
// journal replay cannot see: the participant voted and parked, but the
// coordinator died before its prepared record was durable. Recover's
// orphan sweep must find the session through ReqInDoubt, roll it back
// under presumed abort, and release its locks.
func TestRecoverSweepsUnjournaledPrepared(t *testing.T) {
	srv := openSite(t, ldbms.Spec{Service: "svc_orph", DB: "orphdb",
		Boot: []string{"CREATE TABLE acct (id INTEGER, bal FLOAT)"}})
	ts := serveLAM(t, srv)

	fed := orphanFederation(t, ts.Addr())
	parkOrphan(t, ts.Addr(), "orphdb", 77, "INSERT INTO acct VALUES (1, 10.0)")
	waitParked(t, ts, 1)

	rep, err := fed.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if swept := rep.Orphans; len(swept) != 1 {
		t.Fatalf("swept = %+v, want one participant", swept)
	}
	if got := len(ts.InDoubt()); got != 0 {
		t.Fatalf("parked sessions after sweep = %d, want 0", got)
	}

	// Presumed abort: the effect is gone and the table lock is free — a
	// fresh writer gets in well under the lock timeout.
	sess, err := srv.OpenSession("orphdb")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec("SELECT * FROM acct")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("orphan's insert survived: %v", res.Rows)
	}
	if _, err := sess.Exec("INSERT INTO acct VALUES (2, 20.0)"); err != nil {
		t.Fatalf("post-sweep writer blocked: %v", err)
	}
	sess.Commit()

	// Idempotent: a second sweep finds nothing.
	rep, err = fed.Recover(context.Background())
	if swept := rep.Orphans; err != nil || len(swept) != 0 {
		t.Fatalf("second sweep = %+v, %v, want empty", swept, err)
	}
}

// failFirstResolve is a LAM client whose first Resolve fails with a
// definite error, leaving the session parked for the next call.
type failFirstResolve struct {
	lam.Client
	failed atomic.Bool
}

func (c *failFirstResolve) Resolve(ctx context.Context, id int64, commit bool) (ldbms.SessionState, error) {
	if c.failed.CompareAndSwap(false, true) {
		return 0, errors.New("resolve refused")
	}
	return c.Client.Resolve(ctx, id, commit)
}

// TestRecoverSparesJournaledSessions: a parked session the coordinator
// journal DOES cover belongs to the journal replay, which may hold a
// commit decision for it — the sweep must not presume abort, even when
// the replay could not reach the session and left its unit open. The
// journal covers it with a branch of a commit decision, or, in a journal
// written before decisions named their branches, with a prepared record
// and no decision (so the replay rolls it back).
func TestRecoverSparesJournaledSessions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record func(addr string, sid int64) *mtlog.Record
		commit bool
	}{
		{"decision branch", func(addr string, sid int64) *mtlog.Record {
			return &mtlog.Record{Type: mtlog.TDecision, MTID: 42, Commit: true, Decided: []string{"t1"},
				Branches: []mtlog.Branch{{Task: "t1", Addr: addr, SessionID: sid}}}
		}, true},
		{"prepared record", func(addr string, sid int64) *mtlog.Record {
			return &mtlog.Record{Type: mtlog.TPrepared, MTID: 42, Task: "t1", Addr: addr, SessionID: sid}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := openSite(t, ldbms.Spec{Service: "svc_orph", DB: "orphdb",
				Boot: []string{"CREATE TABLE acct (id INTEGER, bal FLOAT)"}})
			ts := serveLAM(t, srv)

			fed := orphanFederation(t, ts.Addr())
			sid := parkOrphan(t, ts.Addr(), "orphdb", 42, "INSERT INTO acct VALUES (1, 10.0)")
			waitParked(t, ts, 1)

			// The journal knows this session: an open multitransaction
			// whose record of it is durable.
			j := fed.Journal()
			if err := j.Append(&mtlog.Record{Type: mtlog.TBegin, MTID: 42, Kind: "sync"}); err != nil {
				t.Fatal(err)
			}
			if err := j.Append(tc.record(ts.Addr(), sid)); err != nil {
				t.Fatal(err)
			}

			// The replay's one attempt fails: the unit stays open, the
			// session parked, and the sweep that follows finds it.
			c, err := fed.Resolve(ts.Addr())
			if err != nil {
				t.Fatal(err)
			}
			fed.RegisterClient(ts.Addr(), &failFirstResolve{Client: c})
			rep, err := fed.Recover(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if swept := rep.Orphans; len(swept) != 0 {
				t.Fatalf("swept journaled session: %+v", swept)
			}
			if got := len(ts.InDoubt()); got != 1 {
				t.Fatalf("parked sessions = %d, want the journaled one untouched", got)
			}

			// The replay owns it and delivers the journal's decision
			// (presumed abort when there is none).
			rep, err = fed.Recover(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Resolved) != 1 || rep.Resolved[0].Commit != tc.commit {
				t.Fatalf("resolved = %+v, want one with commit=%v", rep.Resolved, tc.commit)
			}
			if got := len(ts.InDoubt()); got != 0 {
				t.Fatalf("parked sessions after Recover = %d, want 0", got)
			}
			sess, err := srv.OpenSession("orphdb")
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			res, err := sess.Exec("SELECT id FROM acct")
			if err != nil {
				t.Fatal(err)
			}
			if want := map[bool]int{true: 1, false: 0}[tc.commit]; len(res.Rows) != want {
				t.Fatalf("acct rows = %v, want %d", res.Rows, want)
			}
		})
	}
}
