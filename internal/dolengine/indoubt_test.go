package dolengine

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"msql/internal/dol"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/netfault"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
)

// flakySession is a lam.Session + lam.Recoverable whose commit (or
// prepare) fails with a transport error, simulating a connection lost in
// the prepared-to-commit window.
type flakySession struct {
	addr       string
	id         int64
	failOp     string // "commit" | "prepare" | "rollback"
	mu         sync.Mutex
	execCalls  int
	commitTrys int
}

func (s *flakySession) Exec(ctx context.Context, sql string) (*sqlengine.Result, error) {
	s.mu.Lock()
	s.execCalls++
	s.mu.Unlock()
	return &sqlengine.Result{RowsAffected: 1}, nil
}

func (s *flakySession) Load(ctx context.Context, table string, rows [][]sqlval.Value) (int, error) {
	return len(rows), nil
}

func (s *flakySession) Prepare(ctx context.Context) error {
	if s.failOp == "prepare" {
		return fmt.Errorf("lam fake (%s): prepare: %w", s.addr, io.EOF)
	}
	return nil
}

func (s *flakySession) Commit(ctx context.Context) error {
	s.mu.Lock()
	s.commitTrys++
	s.mu.Unlock()
	switch s.failOp {
	case "commit":
		return fmt.Errorf("lam fake (%s): commit: %w", s.addr, io.EOF)
	case "commit-definite":
		return fmt.Errorf("lam fake (%s): commit: disk full", s.addr)
	}
	return nil
}

func (s *flakySession) Rollback(ctx context.Context) error {
	if s.failOp == "rollback" {
		return fmt.Errorf("lam fake (%s): rollback: %w", s.addr, io.EOF)
	}
	return nil
}

func (s *flakySession) State(ctx context.Context) (ldbms.SessionState, error) {
	return ldbms.StateActive, nil
}
func (s *flakySession) Database() string              { return "db" }
func (s *flakySession) Close() error                  { return nil }
func (s *flakySession) RecoveryInfo() (string, int64) { return s.addr, s.id }

type flakyClient struct{ sess *flakySession }

func (c *flakyClient) ServiceName() string { return "fake" }
func (c *flakyClient) Profile(ctx context.Context) (ldbms.Profile, error) {
	return ldbms.ProfileOracleLike(), nil
}
func (c *flakyClient) Open(ctx context.Context, db string) (lam.Session, error) {
	return c.sess, nil
}
func (c *flakyClient) Describe(ctx context.Context, db, name string) ([]schema.Column, error) {
	return nil, nil
}
func (c *flakyClient) ListTables(ctx context.Context, db string) ([]string, error) { return nil, nil }
func (c *flakyClient) ListViews(ctx context.Context, db string) ([]string, error)  { return nil, nil }
func (c *flakyClient) Close() error                                                { return nil }

const inDoubtProgram = `
DOLBEGIN
OPEN db AT fake AS c1;
TASK T1 NOCOMMIT FOR c1
{ UPDATE t SET x = 1 }
ENDTASK;
IF (T1=P) THEN
BEGIN
COMMIT T1;
DOLSTATUS=0;
END;
ELSE
BEGIN
ABORT T1;
DOLSTATUS=1;
END;
CLOSE c1;
DOLEND
`

func engineWith(t *testing.T, sess *flakySession) *Engine {
	t.Helper()
	eng := New(MapDirectory{"fake": &flakyClient{sess: sess}})
	eng.Recovery.BaseDelay = time.Millisecond
	eng.Recovery.MaxDelay = 5 * time.Millisecond
	eng.RecoverTimeout = 100 * time.Millisecond
	return eng
}

func TestCommitTransportFailureRecoversToCommitted(t *testing.T) {
	sess := &flakySession{addr: "10.0.0.1:9001", id: 7, failOp: "commit"}
	eng := engineWith(t, sess)

	var calls int
	var gotAddr string
	var gotID int64
	var gotCommit bool
	eng.resolve = func(ctx context.Context, addr string, id int64, commit bool) (ldbms.SessionState, error) {
		calls++
		gotAddr, gotID, gotCommit = addr, id, commit
		if calls < 3 {
			return 0, fmt.Errorf("dial %s: %w", addr, io.EOF) // LAM still down
		}
		return ldbms.StateCommitted, nil
	}

	prog, err := dol.Parse(inDoubtProgram)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TaskStatus("T1"); got != dol.StatusCommitted {
		t.Fatalf("T1 = %v, want committed after recovery", got)
	}
	if len(out.Unresolved) != 0 {
		t.Fatalf("unresolved = %+v, want none", out.Unresolved)
	}
	if calls != 3 {
		t.Fatalf("resolve calls = %d, want 3 (2 failures + success)", calls)
	}
	if gotAddr != "10.0.0.1:9001" || gotID != 7 || !gotCommit {
		t.Fatalf("resolve(%s, %d, %v), want recorded commit decision for session 7", gotAddr, gotID, gotCommit)
	}
}

func TestPermanentFailureReportsUnresolved(t *testing.T) {
	sess := &flakySession{addr: "10.0.0.2:9001", id: 9, failOp: "commit"}
	eng := engineWith(t, sess)
	eng.Recovery.Attempts = 2

	calls := 0
	eng.resolve = func(ctx context.Context, addr string, id int64, commit bool) (ldbms.SessionState, error) {
		calls++
		return 0, fmt.Errorf("dial %s: %w", addr, io.EOF)
	}

	prog, err := dol.Parse(inDoubtProgram)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TaskStatus("T1"); got != dol.StatusInDoubt {
		t.Fatalf("T1 = %v, want in-doubt when the LAM stays down", got)
	}
	if calls != 3 { // first try + 2 retries
		t.Fatalf("resolve calls = %d, want 3", calls)
	}
	if len(out.Unresolved) != 1 {
		t.Fatalf("unresolved = %+v, want one participant", out.Unresolved)
	}
	u := out.Unresolved[0]
	if u.Task != "T1" || u.Addr != "10.0.0.2:9001" || u.SessionID != 9 || !u.Commit {
		t.Fatalf("unresolved = %+v", u)
	}
	// The commit was attempted exactly once — never blindly replayed.
	if sess.commitTrys != 1 {
		t.Fatalf("commit attempts = %d, want 1", sess.commitTrys)
	}
}

func TestPrepareTransportFailureRecoversToAborted(t *testing.T) {
	sess := &flakySession{addr: "10.0.0.3:9001", id: 4, failOp: "prepare"}
	eng := engineWith(t, sess)

	var gotCommit bool
	eng.resolve = func(ctx context.Context, addr string, id int64, commit bool) (ldbms.SessionState, error) {
		gotCommit = commit
		return ldbms.StateAborted, nil
	}

	prog, err := dol.Parse(inDoubtProgram)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	// A lost prepare vote resolves to rollback — the unit aborted.
	if got := out.TaskStatus("T1"); got != dol.StatusAborted {
		t.Fatalf("T1 = %v, want aborted", got)
	}
	if gotCommit {
		t.Fatal("lost prepare must resolve with a rollback decision")
	}
	if out.Status != 1 {
		t.Fatalf("DOLSTATUS = %d, want 1 (abort branch)", out.Status)
	}
}

// TestReplayedCommitReturnsRecordedOutcome covers the lost-ack replay: a
// coordinator that crashes after its COMMIT reached the LAM but before
// the acknowledged outcome hit its journal re-delivers the same decision
// on recovery. The LAM's outcome tombstone must answer the replay with
// the recorded terminal state — not an "unknown session" error, and
// without applying the commit a second time.
func TestReplayedCommitReturnsRecordedOutcome(t *testing.T) {
	srv := ldbms.NewServer("svc", ldbms.ProfileOracleLike(), 1)
	if err := srv.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	seed, err := srv.OpenSession("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"CREATE TABLE t (x INTEGER)", "INSERT INTO t VALUES (1)"} {
		if _, err := seed.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	seed.Commit()
	seed.Close()

	ts, err := lam.Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	proxy, err := netfault.New(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	ctx := context.Background()
	c, err := lam.DialWith(ctx, proxy.Addr(), lam.DialOptions{
		CallTimeout: 2 * time.Second,
		Retry:       lam.RetryPolicy{Attempts: 0, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(ctx, "db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, "UPDATE t SET x = x + 1"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	_, id := sess.(lam.Recoverable).RecoveryInfo()
	proxy.Sever() // coordinator dies in the prepared-to-commit window
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ids := ts.InDoubt(); len(ids) == 1 && ids[0] == id {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %d never parked; in-doubt = %v", id, ts.InDoubt())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// First delivery drives the parked session to commit.
	st, err := lam.Resolve(ctx, proxy.Addr(), id, true)
	if err != nil {
		t.Fatal(err)
	}
	if st != ldbms.StateCommitted {
		t.Fatalf("first resolve state = %v, want committed", st)
	}
	// The replay (the first ack was lost) answers from the tombstone.
	st, err = lam.Resolve(ctx, proxy.Addr(), id, true)
	if err != nil {
		t.Fatalf("replayed commit errored: %v", err)
	}
	if st != ldbms.StateCommitted {
		t.Fatalf("replayed resolve state = %v, want the recorded committed outcome", st)
	}

	// The update applied exactly once.
	check, err := srv.OpenSession("db")
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	res, err := check.Exec("SELECT x FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := res.Rows[0][0].AsFloat(); f != 2 {
		t.Fatalf("x = %v, want 2 (committed once, replay must not re-apply)", f)
	}
}

func TestDefiniteCommitErrorIsNotInDoubt(t *testing.T) {
	// A definite (server-answered) commit failure must go to Aborted
	// directly — the outcome is known, so no recovery and no resolve calls.
	sess := &flakySession{addr: "10.0.0.4:9001", id: 2, failOp: "commit-definite"}
	eng := engineWith(t, sess)
	resolveCalled := false
	eng.resolve = func(ctx context.Context, addr string, id int64, commit bool) (ldbms.SessionState, error) {
		resolveCalled = true
		return ldbms.StateAborted, nil
	}
	prog, err := dol.Parse(inDoubtProgram)
	if err != nil {
		t.Fatal(err)
	}
	out, err := eng.Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TaskStatus("T1"); got != dol.StatusAborted {
		t.Fatalf("T1 = %v, want aborted on a definite commit failure", got)
	}
	if resolveCalled {
		t.Fatal("definite failure is not in-doubt, resolve must not run")
	}
}
