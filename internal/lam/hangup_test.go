package lam

import (
	"context"
	"encoding/gob"
	"errors"
	"net"
	"path/filepath"
	"testing"

	"msql/internal/ldbms"
	"msql/internal/wire"
)

// TestCanceledPrepareAnswersStoredVote: a vote that rode the exec is
// stored with the session, so the Prepare that follows returns it even
// when the caller's context was canceled in between. Reading the cancel
// as a failed vote would record a definite abort for a session the LAM
// holds prepared.
func TestCanceledPrepareAnswersStoredVote(t *testing.T) {
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

	for i := 0; i < 20; i++ {
		sess, err := c.Open(bg, "delta")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(bg)
		if _, err := sess.Exec(WithEnding(ctx, wire.ReqPrepare), "UPDATE flight SET rate = rate + 1 WHERE fnu = 10"); err != nil {
			t.Fatal(err)
		}
		cancel()
		if err := sess.Prepare(ctx); err != nil {
			t.Fatalf("call %d: Prepare after cancel = %v, want the stored yes vote", i, err)
		}
		if err := sess.Rollback(bg); err != nil {
			t.Fatal(err)
		}
		sess.Close()
	}
}

// TestVoteAfterNoSessionIsRefused: once attach has answered "no session"
// for an id, the asker has concluded abort, so a vote on that id arriving
// later — on the exec or on its own — is refused and rolled back instead
// of parking a prepared session nobody will resolve. With a participant
// journal the refusal comes before the vote is journaled, so a restart
// finds nothing in doubt either.
func TestVoteAfterNoSessionIsRefused(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for _, ride := range []bool{true, false} {
			name := map[bool]string{false: "memory", true: "journal"}[durable] +
				map[bool]string{true: "/exec+prepare", false: "/prepare"}[ride]
			t.Run(name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "p.journal")
				var ts *TCPServer
				if durable {
					ts = durableServe(t, path, ServeOptions{})
				} else {
					var err error
					if ts, err = Serve("127.0.0.1:0", deltaServer(t)); err != nil {
						t.Fatal(err)
					}
					defer ts.Close()
				}
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
				// An opening reply names the id the connection's next session
				// takes: the id a late vote would carry.
				first := send(&wire.Request{Kind: wire.ReqExec, Open: true, Database: "delta",
					SQL: "SELECT fnu FROM flight", Then: wire.ReqCommit})
				next := first.NextSession
				if _, err := resolveAt(bg, ts.Addr(), next, false); !errors.Is(err, wire.ErrNoSession) {
					t.Fatalf("resolve of session %d before it exists = %v, want ErrNoSession", next, err)
				}

				update := &wire.Request{Kind: wire.ReqExec, Open: true, Database: "delta", CloseFirst: first.SessionID,
					SQL: "UPDATE flight SET rate = 175.0 WHERE fnu = 10", MTID: 7}
				var voteErr error
				if ride {
					update.Then = wire.ReqPrepare
					resp := send(update)
					if resp.SessionID != next || resp.Err() != nil {
						t.Fatalf("exec opened session %d (err %v), want %d", resp.SessionID, resp.Err(), next)
					}
					voteErr = resp.ThenErr()
				} else {
					if resp := send(update); resp.SessionID != next || resp.Err() != nil {
						t.Fatalf("exec opened session %d (err %v), want %d", resp.SessionID, resp.Err(), next)
					}
					voteErr = send(&wire.Request{Kind: wire.ReqPrepare, SessionID: next, MTID: 7}).Err()
				}
				if !errors.Is(voteErr, wire.ErrNoSession) {
					t.Fatalf("vote on session %d = %v, want a refusal", next, voteErr)
				}
				if st := ldbms.SessionState(send(&wire.Request{Kind: wire.ReqState, SessionID: next}).State); st == ldbms.StatePrepared {
					t.Fatal("the refused vote left the session prepared")
				}
				conn.Close()
				waitNoConns(t, ts)
				if ids := ts.InDoubt(); len(ids) != 0 {
					t.Fatalf("in doubt %v after a refused vote", ids)
				}
				if _, err := resolveAt(bg, ts.Addr(), next, true); !errors.Is(err, wire.ErrNoSession) {
					t.Fatalf("second resolve = %v, want ErrNoSession still", err)
				}
				if got := rate10(t, ts.Addr()); got != 150 {
					t.Fatalf("rate = %v, want the seed's 150: the refused vote's update stuck", got)
				}
				if durable {
					ts.Close()
					if ids := durableServe(t, path, ServeOptions{}).InDoubt(); len(ids) != 0 {
						t.Fatalf("restart replays %v in doubt from the journal", ids)
					}
				}
			})
		}
	}
}
