package lam

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"msql/internal/ldbms"
	"msql/internal/sqlval"
	"msql/internal/wire"
)

var bg = context.Background()

// sessionState asks the server for a session's state (wire.ReqState),
// which these tests use to watch the server side of a session.
func sessionState(sess Session) (ldbms.SessionState, error) {
	resp, err := sess.(*remoteSession).call(bg, &wire.Request{Kind: wire.ReqState})
	if err != nil {
		return 0, err
	}
	return ldbms.SessionState(resp.State), nil
}

// resolveAt resolves a session at addr through a client of its own, the
// way an operator terminates a participant the coordinator left in doubt.
func resolveAt(ctx context.Context, addr string, id int64, commit bool) (ldbms.SessionState, error) {
	c, err := DialWith(ctx, addr, DialOptions{})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return c.Resolve(ctx, id, commit)
}

// forgetAt acknowledges a session at addr through a client of its own.
func forgetAt(ctx context.Context, addr string, id int64) error {
	c, err := DialWith(ctx, addr, DialOptions{})
	if err != nil {
		return err
	}
	defer c.Close()
	return c.Forget(ctx, id)
}

func deltaServer(t testing.TB) *ldbms.Server {
	t.Helper()
	return openSite(t, ldbms.Spec{Service: "delta-svc", Seed: 7, DB: "delta", Boot: []string{
		"CREATE TABLE flight (fnu INTEGER, source CHAR(20), dest CHAR(20), rate FLOAT)",
		"INSERT INTO flight VALUES (10, 'Houston', 'San Antonio', 150.0), (11, 'Austin', 'Dallas', 90.0)",
		"CREATE VIEW cheap AS SELECT fnu FROM flight WHERE rate < 100",
	}})
}

// openSite opens the LDBMS spec describes.
func openSite(t testing.TB, spec ldbms.Spec) *ldbms.Server {
	t.Helper()
	srv, err := ldbms.Open(spec)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// runClientSuite exercises one Client implementation end to end.
func runClientSuite(t *testing.T, c Client) {
	t.Helper()
	if c.ServiceName() != "delta-svc" {
		t.Fatalf("service = %s", c.ServiceName())
	}
	p, err := c.Profile(bg)
	if err != nil {
		t.Fatal(err)
	}
	if !p.TwoPC || p.Name != "oracle-like" {
		t.Fatalf("profile = %+v", p)
	}

	tables, err := c.ListTables(bg, "delta")
	if err != nil || len(tables) != 1 || tables[0] != "flight" {
		t.Fatalf("tables = %v, %v", tables, err)
	}
	views, err := c.ListViews(bg, "delta")
	if err != nil || len(views) != 1 || views[0] != "cheap" {
		t.Fatalf("views = %v, %v", views, err)
	}
	desc, err := c.Describe(bg, "delta", "flight")
	if cols := desc.Columns; err != nil || len(cols) != 4 || cols[3].Name != "rate" || desc.Rows != 2 {
		t.Fatalf("describe = %+v, %v; want 4 columns and 2 rows", desc, err)
	}
	if desc, err := c.Describe(bg, "delta", "cheap"); err != nil || desc.Rows != 0 {
		t.Fatalf("view describe = %+v, %v; want no row count", desc, err)
	}

	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Database() != "delta" {
		t.Fatalf("db = %s", sess.Database())
	}
	res, err := sess.Exec(bg, "SELECT fnu, rate FROM flight WHERE source = 'Houston'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Columns[0].Name != "fnu" {
		t.Fatalf("res = %+v", res)
	}
	if n, _ := res.Rows[0][0].AsInt(); n != 10 {
		t.Fatalf("fnu = %v", res.Rows[0][0])
	}
	if res.Rows[0][1].K != sqlval.KindFloat {
		t.Fatalf("rate kind = %v", res.Rows[0][1].K)
	}

	// 2PC cycle with state inspection.
	if _, err := sess.Exec(bg, "UPDATE flight SET rate = rate * 1.1 WHERE fnu = 10"); err != nil {
		t.Fatal(err)
	}
	st, err := sessionState(sess)
	if err != nil || st != ldbms.StateActive {
		t.Fatalf("state = %v, %v", st, err)
	}
	if err := sess.Prepare(bg); err != nil {
		t.Fatal(err)
	}
	st, _ = sessionState(sess)
	if st != ldbms.StatePrepared {
		t.Fatalf("state = %v", st)
	}
	if err := sess.Rollback(bg); err != nil {
		t.Fatal(err)
	}
	st, _ = sessionState(sess)
	if st != ldbms.StateAborted {
		t.Fatalf("state = %v", st)
	}
	res, err = sess.Exec(bg, "SELECT rate FROM flight WHERE fnu = 10")
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := res.Rows[0][0].AsFloat(); f != 150 {
		t.Fatalf("rate after rollback = %v", f)
	}
	// Commit path: update, prepare, commit, verify durable, restore.
	if _, err := sess.Exec(bg, "UPDATE flight SET rate = 160 WHERE fnu = 10"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Prepare(bg); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(bg); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Exec(bg, "SELECT rate FROM flight WHERE fnu = 10")
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := res.Rows[0][0].AsFloat(); f != 160 {
		t.Fatalf("rate after commit = %v", f)
	}
	if _, err := sess.Exec(bg, "UPDATE flight SET rate = 150 WHERE fnu = 10"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(bg); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	// Error propagation with sentinel preservation.
	sess2, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	_, err = sess2.Exec(bg, "SELECT * FROM not_a_table")
	if err == nil {
		t.Fatal("expected error for missing table")
	}
	// A remote Open touches no network: an unknown database fails the
	// session's first verb.
	bad, err := c.Open(bg, "not_a_db")
	if err == nil {
		_, err = bad.Exec(bg, "SELECT 1")
		bad.Close()
	}
	if err == nil {
		t.Fatal("expected error for missing database")
	}
}

func TestRemoteClient(t *testing.T) {
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
	runClientSuite(t, c)
}

func TestRemoteSentinelErrorsSurviveWire(t *testing.T) {
	srv := openSite(t, ldbms.Spec{Service: "auto", Profile: ldbms.ProfileAutoCommitOnly(), DB: "d"})
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
	sess, err := c.Open(bg, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if err := sess.Prepare(bg); !errors.Is(err, ldbms.ErrNoTwoPC) {
		t.Fatalf("prepare err = %v, want ErrNoTwoPC across the wire", err)
	}

	srv.Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec})
	if _, err := sess.Exec(bg, "SELECT 1"); !errors.Is(err, ldbms.ErrInjected) {
		t.Fatalf("exec err = %v, want ErrInjected across the wire", err)
	}
}

func TestRemoteParallelSessions(t *testing.T) {
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

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := c.Open(bg, "delta")
			if err != nil {
				errs[i] = err
				return
			}
			defer sess.Close()
			for j := 0; j < 5; j++ {
				if _, err := sess.Exec(bg, "SELECT COUNT(*) FROM flight"); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

func TestRemoteNullsAndValuesRoundTrip(t *testing.T) {
	srv := deltaServer(t)
	ts, _ := Serve("127.0.0.1:0", srv)
	defer ts.Close()
	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exec(bg, "INSERT INTO flight (fnu) VALUES (99)"); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(bg, "SELECT fnu, source, rate FROM flight WHERE fnu = 99")
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if n, _ := r[0].AsInt(); n != 99 {
		t.Fatalf("fnu = %v", r[0])
	}
	if !r[1].IsNull() || !r[2].IsNull() {
		t.Fatalf("nulls lost: %v %v", r[1], r[2])
	}
}

func TestRemoteLargeResultSet(t *testing.T) {
	const n = 5000
	boot := []string{"CREATE TABLE big (id INTEGER, label CHAR(32))"}
	for i := 0; i < n; i += 100 {
		stmt := "INSERT INTO big VALUES "
		for j := 0; j < 100; j++ {
			if j > 0 {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'row-%d-label-padding')", i+j, i+j)
		}
		boot = append(boot, stmt)
	}
	srv := openSite(t, ldbms.Spec{Service: "big", DB: "d", Boot: boot})

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
	sess, err := c.Open(bg, "d")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec(bg, "SELECT id, label FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != n {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Spot-check content integrity across the wire.
	last := res.Rows[n-1]
	if id, _ := last[0].AsInt(); id != n-1 {
		t.Fatalf("last id = %v", last[0])
	}
	if last[1].S != fmt.Sprintf("row-%d-label-padding", n-1) {
		t.Fatalf("last label = %v", last[1])
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv := deltaServer(t)
	ts, _ := Serve("127.0.0.1:0", srv)
	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ts.Close()
	if _, err := c.Profile(bg); err == nil {
		t.Fatal("call after server close should fail")
	}
	c.Close()
}
