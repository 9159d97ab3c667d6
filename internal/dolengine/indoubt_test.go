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
	"msql/internal/wire"
)

// flakySession is a lam.Session whose commit (or prepare) fails with a
// transport error, simulating a connection lost in the prepared-to-commit
// window.
type flakySession struct {
	addr       string
	id         int64
	failOp     string        // "commit" | "prepare" | "rollback"
	delay      time.Duration // Commit and Rollback take this long
	decideErr  error         // Commit and Rollback fail with it when set
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
	time.Sleep(s.delay)
	s.mu.Lock()
	s.commitTrys++
	s.mu.Unlock()
	if s.decideErr != nil {
		return s.decideErr
	}
	switch s.failOp {
	case "commit":
		return fmt.Errorf("lam fake (%s): commit: %w", s.addr, io.EOF)
	case "commit-definite":
		return fmt.Errorf("lam fake (%s): commit: disk full", s.addr)
	}
	return nil
}

func (s *flakySession) Rollback(ctx context.Context) error {
	time.Sleep(s.delay)
	if s.decideErr != nil {
		return s.decideErr
	}
	if s.failOp == "rollback" {
		return fmt.Errorf("lam fake (%s): rollback: %w", s.addr, io.EOF)
	}
	return nil
}

func (s *flakySession) Database() string              { return "db" }
func (s *flakySession) Close() error                  { return nil }
func (s *flakySession) RecoveryInfo() (string, int64) { return s.addr, s.id }

// flakyClient hands out its one session and answers the termination
// verbs through resolve.
type flakyClient struct {
	sess    *flakySession
	resolve func(ctx context.Context, id int64, commit bool) (ldbms.SessionState, error)
}

func (c *flakyClient) ServiceName() string { return "fake" }
func (c *flakyClient) Profile(ctx context.Context) (ldbms.Profile, error) {
	return ldbms.ProfileOracleLike(), nil
}
func (c *flakyClient) Open(ctx context.Context, db string) (lam.Session, error) {
	return c.sess, nil
}
func (c *flakyClient) Describe(ctx context.Context, db, name string) (schema.Table, error) {
	return schema.Table{}, nil
}
func (c *flakyClient) ListTables(ctx context.Context, db string) ([]string, error) { return nil, nil }
func (c *flakyClient) ListViews(ctx context.Context, db string) ([]string, error)  { return nil, nil }
func (c *flakyClient) Close() error                                                { return nil }
func (c *flakyClient) Resolve(ctx context.Context, id int64, commit bool) (ldbms.SessionState, error) {
	return c.resolve(ctx, id, commit)
}
func (c *flakyClient) InDoubt(ctx context.Context) ([]wire.InDoubtSession, error) { return nil, nil }
func (c *flakyClient) Forget(ctx context.Context, id int64) error                 { return nil }

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

func engineWith(t *testing.T, sess *flakySession, resolve func(ctx context.Context, id int64, commit bool) (ldbms.SessionState, error)) *Engine {
	t.Helper()
	eng := New(MapDirectory{"fake": &flakyClient{sess: sess, resolve: resolve}})
	eng.Recovery.BaseDelay = time.Millisecond
	eng.Recovery.MaxDelay = 5 * time.Millisecond
	eng.RecoverTimeout = 100 * time.Millisecond
	return eng
}

func TestCommitTransportFailureRecoversToCommitted(t *testing.T) {
	sess := &flakySession{addr: "10.0.0.1:9001", id: 7, failOp: "commit"}
	var calls int
	var gotID int64
	var gotCommit bool
	eng := engineWith(t, sess, func(ctx context.Context, id int64, commit bool) (ldbms.SessionState, error) {
		calls++
		gotID, gotCommit = id, commit
		if calls < 3 {
			return 0, fmt.Errorf("dial %s: %w", sess.addr, io.EOF) // LAM still down
		}
		return ldbms.StateCommitted, nil
	})

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
	if gotID != 7 || !gotCommit {
		t.Fatalf("resolve(%d, %v) on the task's client, want recorded commit decision for session 7", gotID, gotCommit)
	}
}

func TestPermanentFailureReportsUnresolved(t *testing.T) {
	sess := &flakySession{addr: "10.0.0.2:9001", id: 9, failOp: "commit"}
	calls := 0
	eng := engineWith(t, sess, func(ctx context.Context, id int64, commit bool) (ldbms.SessionState, error) {
		calls++
		return 0, fmt.Errorf("dial %s: %w", sess.addr, io.EOF)
	})
	eng.Recovery.Attempts = 2

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
	var gotCommit bool
	eng := engineWith(t, sess, func(ctx context.Context, id int64, commit bool) (ldbms.SessionState, error) {
		gotCommit = commit
		return ldbms.StateAborted, nil
	})

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
	srv := openSite(t, ldbms.Spec{Service: "svc", DB: "db", Boot: []string{
		"CREATE TABLE t (x INTEGER)", "INSERT INTO t VALUES (1)",
	}})

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
	_, id := sess.RecoveryInfo()
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
	st, err := c.Resolve(ctx, id, true)
	if err != nil {
		t.Fatal(err)
	}
	if st != ldbms.StateCommitted {
		t.Fatalf("first resolve state = %v, want committed", st)
	}
	// The replay (the first ack was lost) answers from the tombstone.
	st, err = c.Resolve(ctx, id, true)
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
	resolveCalled := false
	eng := engineWith(t, sess, func(ctx context.Context, id int64, commit bool) (ldbms.SessionState, error) {
		resolveCalled = true
		return ldbms.StateAborted, nil
	})
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

// TestUnansweredDecisionLeavesTaskInDoubt: a decision the participant's
// server never answered — refused by a connection an earlier call
// retired, or cut short by the client's cancellation — may have left the
// participant prepared. The task goes in doubt and the recovery loop
// delivers the decision, instead of recording an outcome nobody sent.
func TestUnansweredDecisionLeavesTaskInDoubt(t *testing.T) {
	const abortProgram = `
DOLBEGIN
OPEN db AT fake AS c1;
TASK T1 NOCOMMIT FOR c1 { UPDATE t SET x = 1 } ENDTASK;
ABORT T1;
DOLSTATUS=1;
CLOSE c1;
DOLEND
`
	for _, decideErr := range []error{
		&lam.OpError{Service: "fake", Addr: "10.0.0.5:9001", Op: wire.ReqCommit, Err: wire.ErrConnBroken},
		context.Canceled,
	} {
		for _, commit := range []bool{true, false} {
			sess := &flakySession{addr: "10.0.0.5:9001", id: 3, decideErr: decideErr}
			var calls []bool
			eng := engineWith(t, sess, func(ctx context.Context, id int64, c bool) (ldbms.SessionState, error) {
				calls = append(calls, c)
				if c {
					return ldbms.StateCommitted, nil
				}
				return ldbms.StateAborted, nil
			})
			src, want := inDoubtProgram, dol.StatusCommitted
			if !commit {
				src, want = abortProgram, dol.StatusAborted
			}
			prog, err := dol.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			out, err := eng.Run(context.Background(), prog)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.TaskStatus("T1"); got != want || len(calls) != 1 || calls[0] != commit {
				t.Errorf("%v, commit %v: T1 = %v after resolve calls %v; want %v through one resolve delivering the decision",
					decideErr, commit, got, calls, want)
			}
		}
	}
}

// outcomeLog is a TxLog that records every task outcome in arrival order.
type outcomeLog struct {
	mu       sync.Mutex
	outcomes []string
}

func (l *outcomeLog) Decision(commit bool, tasks []string, votes []Vote) error { return nil }
func (l *outcomeLog) TaskOutcome(task string, st dol.TaskStatus) {
	l.mu.Lock()
	l.outcomes = append(l.outcomes, task+"="+st.String())
	l.mu.Unlock()
}

func (l *outcomeLog) recorded() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.outcomes...)
}

// threeSites is a directory of three fake participants, s1..s3, each
// with its own session; resolve answers every site's termination verbs.
func threeSites(sessions [3]*flakySession, resolve func(ctx context.Context, id int64, commit bool) (ldbms.SessionState, error)) *Engine {
	dir := MapDirectory{}
	for i, sess := range sessions {
		dir[fmt.Sprintf("s%d", i+1)] = &flakyClient{sess: sess, resolve: resolve}
	}
	eng := New(dir)
	eng.Recovery.BaseDelay = time.Millisecond
	eng.Recovery.MaxDelay = 5 * time.Millisecond
	eng.RecoverTimeout = 100 * time.Millisecond
	return eng
}

// threeSiteProgram prepares one task per site and then runs decision
// (e.g. "COMMIT T1, T2, T3").
func threeSiteProgram(decision string) string {
	return `
DOLBEGIN
OPEN db AT s1 AS c1;
OPEN db AT s2 AS c2;
OPEN db AT s3 AS c3;
TASK T1 NOCOMMIT FOR c1 { UPDATE t SET x = 1 } ENDTASK;
TASK T2 NOCOMMIT FOR c2 { UPDATE t SET x = 1 } ENDTASK;
TASK T3 NOCOMMIT FOR c3 { UPDATE t SET x = 1 } ENDTASK;
` + decision + `;
DOLSTATUS=0;
CLOSE c1 c2 c3;
DOLEND
`
}

// TestDecisionRoundOverlaps: once the decision is taken, the phase-2
// messages go to every participant at once, so a round over three sites
// whose commit (or rollback) takes 20 ms costs about 20 ms, not 60.
func TestDecisionRoundOverlaps(t *testing.T) {
	const delay = 20 * time.Millisecond
	for _, tc := range []struct {
		decision string
		want     dol.TaskStatus
	}{
		{"COMMIT T1, T2, T3", dol.StatusCommitted},
		{"ABORT T1, T2, T3", dol.StatusAborted},
	} {
		var sessions [3]*flakySession
		for i := range sessions {
			sessions[i] = &flakySession{addr: fmt.Sprintf("10.0.1.%d:9001", i+1), id: int64(i + 1), delay: delay}
		}
		eng := threeSites(sessions, nil)
		prog, err := dol.Parse(threeSiteProgram(tc.decision))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		out, err := eng.Run(context.Background(), prog)
		wall := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"T1", "T2", "T3"} {
			if got := out.TaskStatus(name); got != tc.want {
				t.Errorf("%s: %s = %s, want %s", tc.decision, name, got, tc.want)
			}
		}
		if wall >= 2*delay {
			t.Errorf("%s took %v over three %v participants: the decision round did not overlap", tc.decision, wall, delay)
		}
	}
}

// TestDecisionRoundKeepsConnectionOrder: the decision fans out across
// connections, but the tasks of one connection are still committed one
// after the other, in plan order.
func TestDecisionRoundKeepsConnectionOrder(t *testing.T) {
	prog, err := dol.Parse(`
DOLBEGIN
OPEN db AT s1 AS c1;
OPEN db AT s2 AS c2;
TASK T1 NOCOMMIT FOR c1 { UPDATE t SET x = 1 } ENDTASK;
TASK T2 NOCOMMIT FOR c1 { UPDATE t SET x = 2 } ENDTASK;
TASK T3 NOCOMMIT FOR c2 { UPDATE t SET x = 3 } ENDTASK;
COMMIT T1, T2, T3;
CLOSE c1 c2;
DOLEND
`)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		dir := MapDirectory{
			"s1": &flakyClient{sess: &flakySession{addr: "10.0.2.1:9001", id: 1}},
			"s2": &flakyClient{sess: &flakySession{addr: "10.0.2.2:9001", id: 2}},
		}
		log := &outcomeLog{}
		out, err := New(dir).RunLogged(context.Background(), prog, log)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"T1", "T2", "T3"} {
			if got := out.TaskStatus(name); got != dol.StatusCommitted {
				t.Fatalf("round %d: %s = %s, want committed", round, name, got)
			}
		}
		var c1 []string
		for _, o := range log.recorded() {
			if o != "T3="+dol.StatusCommitted.String() {
				c1 = append(c1, o)
			}
		}
		want := []string{"T1=" + dol.StatusCommitted.String(), "T2=" + dol.StatusCommitted.String()}
		if fmt.Sprint(c1) != fmt.Sprint(want) {
			t.Fatalf("round %d: connection c1 committed %v, want plan order %v", round, c1, want)
		}
	}
}

// TestDecisionRoundOneParticipantInDoubt: while the decision fans out,
// one participant's commit is lost in transit. Its task alone goes in
// doubt and the recovery loop drives it to the decision; the others
// commit on the first try, and every task gets its outcome record.
func TestDecisionRoundOneParticipantInDoubt(t *testing.T) {
	sessions := [3]*flakySession{
		{addr: "10.0.3.1:9001", id: 1},
		{addr: "10.0.3.2:9001", id: 2, failOp: "commit"},
		{addr: "10.0.3.3:9001", id: 3},
	}
	var mu sync.Mutex
	var resolved []int64
	eng := threeSites(sessions, func(ctx context.Context, id int64, commit bool) (ldbms.SessionState, error) {
		if !commit {
			return 0, fmt.Errorf("session %d resolved with rollback, want the commit decision", id)
		}
		mu.Lock()
		resolved = append(resolved, id)
		mu.Unlock()
		return ldbms.StateCommitted, nil
	})
	prog, err := dol.Parse(threeSiteProgram("COMMIT T1, T2, T3"))
	if err != nil {
		t.Fatal(err)
	}
	log := &outcomeLog{}
	out, err := eng.RunLogged(context.Background(), prog, log)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"T1", "T2", "T3"} {
		if got := out.TaskStatus(name); got != dol.StatusCommitted {
			t.Errorf("%s = %s, want committed", name, got)
		}
	}
	if len(out.Unresolved) != 0 {
		t.Fatalf("unresolved = %+v, want none", out.Unresolved)
	}
	if fmt.Sprint(resolved) != "[2]" {
		t.Fatalf("resolved sessions %v, want only the in-doubt one [2]", resolved)
	}
	for i, sess := range sessions {
		if sess.commitTrys != 1 {
			t.Errorf("s%d: commit attempts = %d, want 1", i+1, sess.commitTrys)
		}
	}
	got := map[string]int{}
	for _, o := range log.recorded() {
		got[o]++
	}
	for _, name := range []string{"T1", "T2", "T3"} {
		if o := name + "=" + dol.StatusCommitted.String(); got[o] != 1 {
			t.Errorf("outcome records %v: want exactly one %s", log.recorded(), o)
		}
	}
}
