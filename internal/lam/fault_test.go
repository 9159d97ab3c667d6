package lam

import (
	"context"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"msql/internal/ldbms"
	"msql/internal/netfault"
	"msql/internal/wire"
)

// deltaProxy serves deltaServer behind a netfault proxy.
func deltaProxy(t *testing.T) (*TCPServer, *netfault.Proxy) {
	t.Helper()
	srv := deltaServer(t)
	ts, err := Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	p, err := netfault.New(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return ts, p
}

func TestCallTimeoutOnBlackholedConnection(t *testing.T) {
	_, p := deltaProxy(t)
	const timeout = 150 * time.Millisecond
	c, err := DialWith(bg, p.Addr(), DialOptions{
		CallTimeout: timeout,
		Retry:       RetryPolicy{Attempts: 0, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// The first verb opens the session on its connection; the black
	// hole then swallows a call on an established one.
	if _, err := sess.Exec(bg, "SELECT fnu FROM flight"); err != nil {
		t.Fatal(err)
	}

	p.SetBlackhole(true)
	start := time.Now()
	_, err = sess.Exec(bg, "SELECT fnu FROM flight")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("exec through a black hole should fail")
	}
	if !wire.Transient(err) {
		t.Fatalf("timeout error should be transient: %v", err)
	}
	if elapsed < timeout/2 || elapsed > 10*timeout {
		t.Fatalf("elapsed = %v, want ~%v (the configured call timeout)", elapsed, timeout)
	}

	// The torn stream poisons the connection: later calls fail fast with
	// wire.ErrConnBroken rather than hanging.
	p.SetBlackhole(false)
	if _, err := sess.Exec(bg, "SELECT 1"); !errors.Is(err, wire.ErrConnBroken) {
		t.Fatalf("call on poisoned connection = %v, want wire.ErrConnBroken", err)
	}
}

func TestContextDeadlineBoundsCall(t *testing.T) {
	_, p := deltaProxy(t)
	// No CallTimeout: only the context bounds the call.
	c, err := DialWith(bg, p.Addr(), DialOptions{Retry: RetryPolicy{Attempts: 0, BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	p.SetBlackhole(true)
	ctx, cancel := context.WithTimeout(bg, 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sess.Exec(ctx, "SELECT fnu FROM flight")
	if err == nil {
		t.Fatal("exec should fail at the context deadline")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("elapsed = %v, call did not respect the context deadline", elapsed)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded in the chain", err)
	}
}

func TestOpErrorIdentifiesPeerAndOperation(t *testing.T) {
	_, p := deltaProxy(t)
	c, err := DialWith(bg, p.Addr(), DialOptions{Retry: RetryPolicy{Attempts: 0, BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// The first verb opens the session on its connection; sever that.
	if _, err := sess.Exec(bg, "SELECT fnu FROM flight"); err != nil {
		t.Fatal(err)
	}

	p.Sever()
	_, err = sess.Exec(bg, "SELECT fnu FROM flight")
	if err == nil {
		t.Fatal("exec on severed connection should fail")
	}
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %T %v, want *OpError", err, err)
	}
	if oe.Op != wire.ReqExec || oe.Addr != p.Addr() || oe.Session == 0 {
		t.Fatalf("OpError = %+v, want exec op, proxy addr, nonzero session", oe)
	}
	msg := err.Error()
	for _, want := range []string{"delta-svc", p.Addr(), "exec", "session"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestControlPlaneRetriesAfterSever(t *testing.T) {
	_, p := deltaProxy(t)
	c, err := DialWith(bg, p.Addr(), DialOptions{
		Retry: RetryPolicy{Attempts: 2, BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Profile(bg); err != nil {
		t.Fatal(err)
	}
	// Kill the pooled connection; the next control call must transparently
	// redial and succeed (profile reads are idempotent).
	p.Sever()
	profile, err := c.Profile(bg)
	if err != nil {
		t.Fatalf("control call after sever = %v, want transparent retry", err)
	}
	if profile.Name != "oracle-like" {
		t.Fatalf("profile = %+v", profile)
	}

	tables, err := c.ListTables(bg, "delta")
	if err != nil || len(tables) != 1 {
		t.Fatalf("tables after recovery = %v, %v", tables, err)
	}
}

func TestDataPlaneIsNotRetried(t *testing.T) {
	_, p := deltaProxy(t)
	c, err := DialWith(bg, p.Addr(), DialOptions{
		Retry: RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exec(bg, "UPDATE flight SET rate = 1 WHERE fnu = 10"); err != nil {
		t.Fatal(err)
	}
	p.Sever()
	// The exec is inside an open transaction: it must surface the failure,
	// not silently replay on a fresh connection.
	if _, err := sess.Exec(bg, "UPDATE flight SET rate = 2 WHERE fnu = 10"); err == nil {
		t.Fatal("data-plane call after sever must fail, not retry")
	}
}

// TestLoadIsNotRetried: Load is data plane. A connection severed under
// it surfaces as a transient OpError naming the op, and the retry policy
// that replays control-plane calls leaves it alone — the server sees the
// one load that got through and never a second.
func TestLoadIsNotRetried(t *testing.T) {
	ts, p := deltaProxy(t)
	c, err := DialWith(bg, p.Addr(), DialOptions{Retry: RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Load(bg, "flight", fidelityRows()[:1]); err != nil {
		t.Fatal(err)
	}
	retries := mRetries.With(p.Addr()).Value()
	p.Sever()
	_, err = sess.Load(bg, "flight", fidelityRows()[1:])
	var op *OpError
	if !errors.As(err, &op) || op.Op != wire.ReqLoad || !wire.Transient(err) {
		t.Fatalf("load on a severed connection: err = %v, want a transient OpError for op load", err)
	}
	if got := mRetries.With(p.Addr()).Value() - retries; got != 0 {
		t.Fatalf("%d retries after the failed load, want none", got)
	}
	// The connection is poisoned, not redialled.
	if _, err := sess.Load(bg, "flight", fidelityRows()[1:]); !errors.Is(err, wire.ErrConnBroken) {
		t.Fatalf("second load = %v, want wire.ErrConnBroken", err)
	}
	if st := ts.srv.Stats(); st.Loads != 1 {
		t.Fatalf("server saw %d loads, want the 1 from before the sever", st.Loads)
	}
}

func TestServerRejectsMalformedRequestKind(t *testing.T) {
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
	if err := enc.Encode(&wire.Request{Kind: wire.ReqKind(99)}); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Err() == nil || !strings.Contains(resp.Err().Error(), "unknown request kind") {
		t.Fatalf("resp err = %v", resp.Err())
	}
	// The connection survives a malformed request: a valid one still works.
	if err := enc.Encode(&wire.Request{Kind: wire.ReqHello}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ServiceNm != "delta-svc" {
		t.Fatalf("hello after bad request = %+v", resp)
	}
}

func TestServerRejectsUnknownSession(t *testing.T) {
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
	for _, kind := range []wire.ReqKind{wire.ReqExec, wire.ReqPrepare, wire.ReqCommit, wire.ReqRollback, wire.ReqState, wire.ReqAttach} {
		if err := enc.Encode(&wire.Request{Kind: kind, SessionID: 424242, SQL: "SELECT 1"}); err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := dec.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Err() == nil || !strings.Contains(resp.Err().Error(), "unknown session") {
			t.Fatalf("%s with bogus session: err = %v", kind, resp.Err())
		}
	}
}

func TestMidStreamCloseWrapsError(t *testing.T) {
	_, p := deltaProxy(t)
	c, err := DialWith(bg, p.Addr(), DialOptions{Retry: RetryPolicy{Attempts: 0, BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	p.Close() // kills every proxied connection mid-stream
	err = sess.Prepare(bg)
	if err == nil {
		t.Fatal("prepare over dead proxy should fail")
	}
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("err = %T %v, want wrapped *OpError, not a bare EOF", err, err)
	}
	if oe.Op != wire.ReqPrepare {
		t.Fatalf("op = %v, want prepare", oe.Op)
	}
}

// prepareOrphan opens a session, updates a row, prepares it, and kills the
// connection so the server parks the session in-doubt. Returns the
// server-side session id.
func prepareOrphan(t *testing.T, ts *TCPServer, p *netfault.Proxy) int64 {
	t.Helper()
	c, err := DialWith(bg, p.Addr(), DialOptions{
		CallTimeout: 2 * time.Second,
		Retry:       RetryPolicy{Attempts: 0, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(bg, "UPDATE flight SET rate = 999 WHERE fnu = 10"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Prepare(bg); err != nil {
		t.Fatal(err)
	}
	_, id := sess.RecoveryInfo()
	p.Sever()
	// Wait for the server to notice the dead connection and park the
	// prepared session.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ids := ts.InDoubt(); len(ids) == 1 && ids[0] == id {
			return id
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %d never parked; in-doubt = %v", id, ts.InDoubt())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestResolveCommitsInDoubtSession(t *testing.T) {
	ts, p := deltaProxy(t)
	id := prepareOrphan(t, ts, p)

	st, err := resolveAt(bg, p.Addr(), id, true)
	if err != nil {
		t.Fatal(err)
	}
	if st != ldbms.StateCommitted {
		t.Fatalf("state = %v, want committed", st)
	}
	if n := len(ts.InDoubt()); n != 0 {
		t.Fatalf("in-doubt after resolve = %d", n)
	}

	// The committed update is durable.
	c, err := DialWith(bg, p.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec(bg, "SELECT rate FROM flight WHERE fnu = 10")
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := res.Rows[0][0].AsFloat(); f != 999 {
		t.Fatalf("rate after resolved commit = %v, want 999", f)
	}
}

func TestResolveRollsBackInDoubtSession(t *testing.T) {
	ts, p := deltaProxy(t)
	id := prepareOrphan(t, ts, p)

	st, err := resolveAt(bg, p.Addr(), id, false)
	if err != nil {
		t.Fatal(err)
	}
	if st != ldbms.StateAborted {
		t.Fatalf("state = %v, want aborted", st)
	}

	c, err := DialWith(bg, p.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec(bg, "SELECT rate FROM flight WHERE fnu = 10")
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := res.Rows[0][0].AsFloat(); f != 150 {
		t.Fatalf("rate after resolved rollback = %v, want original 150", f)
	}
}

func TestResolveAnswersFromOutcomeTombstone(t *testing.T) {
	// Lost-acknowledgment case: the first Resolve commits; a second
	// Resolve (the coordinator retrying because the ack was lost) must
	// learn the definite outcome instead of failing or re-deciding.
	ts, p := deltaProxy(t)
	id := prepareOrphan(t, ts, p)

	if _, err := resolveAt(bg, p.Addr(), id, true); err != nil {
		t.Fatal(err)
	}
	st, err := resolveAt(bg, p.Addr(), id, true)
	if err != nil {
		t.Fatal(err)
	}
	if st != ldbms.StateCommitted {
		t.Fatalf("retried resolve state = %v, want recorded committed outcome", st)
	}
	// Even a rollback-decision retry learns the truth — the recorded
	// outcome wins over the stale decision.
	st, err = resolveAt(bg, p.Addr(), id, false)
	if err != nil {
		t.Fatal(err)
	}
	if st != ldbms.StateCommitted {
		t.Fatalf("conflicting retry state = %v, want recorded committed outcome", st)
	}
}

// TestResolveBeforeOwnerHandlerExits is the recovery race: the
// coordinator has given up on a connection whose server-side handler has
// not noticed yet. The attach must find the prepared session — not
// answer ErrNoSession, which a coordinator reads as "acknowledged and
// forgotten" — and the old handler, when it finally exits, must leave
// the resolved session alone.
func TestResolveBeforeOwnerHandlerExits(t *testing.T) {
	ts, p := deltaProxy(t)
	c, err := DialWith(bg, p.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(bg, "UPDATE flight SET rate = 999 WHERE fnu = 10"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Prepare(bg); err != nil {
		t.Fatal(err)
	}
	_, id := sess.RecoveryInfo()
	if n := len(ts.InDoubt()); n != 0 {
		t.Fatalf("a prepared session with a live owner is listed in doubt (%d)", n)
	}

	// The owning connection is still up: its handler has not exited.
	st, err := resolveAt(bg, p.Addr(), id, true)
	if err != nil {
		t.Fatalf("resolve while the owner's handler is alive: %v", err)
	}
	if st != ldbms.StateCommitted {
		t.Fatalf("state = %v, want committed", st)
	}

	// Now the old handler exits. It no longer owns the session: nothing
	// is parked and the recorded outcome stands.
	sess.(*remoteSession).conn.close()
	deadline := time.Now().Add(5 * time.Second)
	for open := 1; open > 0; { // c pools no other connection
		open = ts.Conns()
		if time.Now().After(deadline) {
			t.Fatalf("%d connections still served", open)
		}
		time.Sleep(time.Millisecond)
	}
	st, err = resolveAt(bg, p.Addr(), id, true)
	if err != nil {
		t.Fatal(err)
	}
	if st != ldbms.StateCommitted {
		t.Fatalf("outcome after the old handler exited = %v, want committed", st)
	}
	if f := rate10(t, p.Addr()); f != 999 {
		t.Fatalf("rate = %v, want the committed 999", f)
	}
	if ids := ts.InDoubt(); len(ids) != 0 {
		t.Fatalf("in-doubt after resolve = %v", ids)
	}
}

// severAfterReply is a connection that dies on the first request sent
// after the peer has answered once: inside Client.Resolve that is the
// decision, right after the attach.
type severAfterReply struct {
	net.Conn
	answered atomic.Bool
}

func (c *severAfterReply) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.answered.Store(true)
	}
	return n, err
}

// SyscallConn lets the pool's peer-close check look at the socket
// underneath, so the connection is reused like any pooled one.
func (c *severAfterReply) SyscallConn() (syscall.RawConn, error) {
	return c.Conn.(syscall.Conn).SyscallConn()
}

func (c *severAfterReply) Write(p []byte) (int, error) {
	if c.answered.Load() {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestResolveSeveredBetweenAttachAndDecision: a connection lost after
// the attach took the session over hands it back to the server's
// in-doubt table, ownerless, and the next Resolve — on a new connection
// — delivers the decision.
func TestResolveSeveredBetweenAttachAndDecision(t *testing.T) {
	ts, p := deltaProxy(t)
	id := prepareOrphan(t, ts, p)

	c, err := DialWith(bg, p.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cut := &severAfterReply{Conn: raw}
	// The idle pool is where Resolve takes its connection from first.
	c.putIdle(&rpcConn{sem: make(chan struct{}, 1), conn: wire.NewConn(cut), r: c})

	if st, err := c.Resolve(bg, id, true); err == nil {
		t.Fatalf("resolve over a connection severed after the attach = %v, want an error", st)
	}
	if !cut.answered.Load() {
		t.Fatal("the attach never went over the pooled connection")
	}
	deadline := time.Now().Add(5 * time.Second)
	for ids := ts.InDoubt(); len(ids) != 1 || ids[0] != id; ids = ts.InDoubt() {
		if time.Now().After(deadline) {
			t.Fatalf("session %d not back in doubt; in-doubt = %v", id, ids)
		}
		time.Sleep(2 * time.Millisecond)
	}

	st, err := c.Resolve(bg, id, true)
	if err != nil {
		t.Fatalf("resolve on a new connection: %v", err)
	}
	if st != ldbms.StateCommitted {
		t.Fatalf("state = %v, want committed", st)
	}
	if f := rate10(t, p.Addr()); f != 999 {
		t.Fatalf("rate = %v, want the committed 999", f)
	}
}

func TestResolveUnknownSession(t *testing.T) {
	_, p := deltaProxy(t)
	if _, err := resolveAt(bg, p.Addr(), 31337, true); err == nil {
		t.Fatal("resolving a never-existing session should fail")
	}
}

func TestServerCloseRecordsOutcomesForParked(t *testing.T) {
	ts, p := deltaProxy(t)
	id := prepareOrphan(t, ts, p)
	ts.Close()
	// Shutdown rolled the parked session back; nothing stays in doubt.
	if n := len(ts.InDoubt()); n != 0 {
		t.Fatalf("in-doubt after close = %d", n)
	}
	_ = id
}

func TestCleanDisconnectLeavesNoConnErrors(t *testing.T) {
	ts, p := deltaProxy(t)

	// A well-behaved client: dial, work, close the session, hang up.
	c, err := DialWith(bg, p.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(bg, "SELECT rate FROM flight WHERE fnu = 10"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The server notices the hangup as EOF (or a close race) — a benign
	// close, never a recorded connection error.
	deadline := time.Now().Add(2 * time.Second)
	for len(ts.InDoubt()) != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the conn loop wind down
	if errs := ts.ConnErrors(); len(errs) != 0 {
		t.Fatalf("clean disconnect recorded conn errors: %v", errs)
	}

	// Shutdown with no live connections is just as quiet.
	ts.Close()
	if errs := ts.ConnErrors(); len(errs) != 0 {
		t.Fatalf("server close recorded conn errors: %v", errs)
	}
}

// replyCutter fronts a LAM: requests pass through, and once armed the
// next reply is swallowed and the client's connection closed — the
// request ran at the server, its answer never arrives.
type replyCutter struct {
	ln    net.Listener
	armed atomic.Bool
}

func newReplyCutter(t *testing.T, backend string) *replyCutter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := &replyCutter{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close()
				continue
			}
			go func() {
				io.Copy(server, client)
				server.Close()
			}()
			go func() {
				defer client.Close()
				buf := make([]byte, 32<<10)
				for {
					n, err := server.Read(buf)
					if n > 0 && c.armed.CompareAndSwap(true, false) {
						server.Close()
						return
					}
					if n > 0 {
						if _, err := client.Write(buf[:n]); err != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	return c
}

func (c *replyCutter) Addr() string { return c.ln.Addr().String() }

// TestOpenExecReplyCutIsNotReplayed: at an autocommit-only site an
// INSERT takes effect as it executes. A session's first request carries
// the open and the INSERT together; when its reply is lost the client
// cannot know whether the row went in, so it must return the failure —
// a transient error naming exec — and never send the request again.
func TestOpenExecReplyCutIsNotReplayed(t *testing.T) {
	srv := openSite(t, ldbms.Spec{Service: "auto-svc", Profile: ldbms.ProfileAutoCommitOnly(), DB: "d",
		Boot: []string{"CREATE TABLE t (id INTEGER)"}})
	ts, err := Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	cut := newReplyCutter(t, ts.Addr())
	c, err := DialWith(bg, cut.Addr(), DialOptions{Retry: RetryPolicy{Attempts: 5, BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	execs, retries := srv.Stats().Execs, mRetries.With(cut.Addr()).Value()
	cut.armed.Store(true)
	_, err = sess.Exec(bg, "INSERT INTO t VALUES (1)")
	var op *OpError
	if !errors.As(err, &op) || op.Op != wire.ReqExec || !wire.Transient(err) {
		t.Fatalf("exec whose reply was cut: err = %v, want a transient OpError for op exec", err)
	}
	if got := srv.Stats().Execs - execs; got != 1 {
		t.Fatalf("server executed %d statements, want the 1 that was sent", got)
	}
	if got := mRetries.With(cut.Addr()).Value() - retries; got != 0 {
		t.Fatalf("%d retries after the cut reply, want none", got)
	}
	local, err := srv.OpenSession("d")
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	res, err := local.Exec("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows at the autocommit site, want exactly 1", len(res.Rows))
	}
}

// useAndClose runs one clean session on c: a read and its commit, so
// the close leaves the server holding no transaction and rides the
// connection's next request.
func useAndClose(t *testing.T, c *Remote) {
	t.Helper()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(bg, "SELECT rate FROM flight WHERE fnu = 10"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitNoConns waits until the server has let every connection go. A
// connection's handler releases the sessions it holds before that, so
// none of them is left behind.
func waitNoConns(t *testing.T, ts *TCPServer) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := ts.Conns()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still serves %d connections", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPooledConnClosedByPeerIsSkipped: a pooled connection the other end
// has closed is found out before a request is written on it, so a
// session's first request — which can never be replayed — goes out on a
// fresh dial and the statement succeeds.
func TestPooledConnClosedByPeerIsSkipped(t *testing.T) {
	ts, p := deltaProxy(t)
	c, err := DialWith(bg, p.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	useAndClose(t, c)
	p.Sever()
	waitNoConns(t, ts) // the server saw the pooled connection die
	time.Sleep(10 * time.Millisecond)

	reused, execs := mPoolReuse.With(p.Addr()).Value(), ts.srv.Stats().Execs
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exec(bg, "UPDATE flight SET rate = 151.0 WHERE fnu = 10"); err != nil {
		t.Fatalf("first request after the pooled connection died: %v", err)
	}
	if err := sess.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if got := mPoolReuse.With(p.Addr()).Value() - reused; got != 0 {
		t.Fatalf("the dead pooled connection was reused %d times", got)
	}
	if got := ts.srv.Stats().Execs - execs; got != 1 {
		t.Fatalf("server executed %d statements, want 1", got)
	}
}

// TestParkedCloseEndsWithItsConnection: a clean close sends nothing; the
// server keeps the session until the connection's next request carries
// the close, or until the connection dies — then nothing stays behind.
func TestParkedCloseEndsWithItsConnection(t *testing.T) {
	ts, p := deltaProxy(t)
	c, err := DialWith(bg, p.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// parked is the close waiting on the one pooled connection.
	parked := func() int64 {
		t.Helper()
		c.poolMu.Lock()
		defer c.poolMu.Unlock()
		if len(c.idle) != 1 {
			t.Fatalf("%d pooled connections, want 1", len(c.idle))
		}
		return c.idle[0].parked
	}
	closes := mServerRequests.With("close-session").Value()
	useAndClose(t, c)
	first := parked()
	if first == 0 {
		t.Fatal("a clean close parked nothing")
	}
	useAndClose(t, c) // its first request delivers the parked close
	second := parked()
	if second == 0 || second == first {
		t.Fatalf("parked close = %d after the next session, want that session's own (not %d)", second, first)
	}
	if got := mServerRequests.With("close-session").Value() - closes; got != 0 {
		t.Fatalf("%d close-session requests, want none", got)
	}
	// The server closes the parked session before it serves the request
	// that carries the close, so that request no longer finds it.
	conn := c.popIdle()
	if _, err := conn.call(bg, &wire.Request{Kind: wire.ReqState, SessionID: second}); !errors.Is(err, wire.ErrNoSession) {
		t.Fatalf("state of a session whose close was delivered: err = %v, want ErrNoSession", err)
	}
	c.putIdle(conn)

	// The pool drops the connection with a close still parked.
	useAndClose(t, c)
	c.Close()
	waitNoConns(t, ts)
}
