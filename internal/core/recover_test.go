package core

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/netfault"
	"msql/internal/topology"
)

// TestCrashRecoveryDeliversLoggedCommit is the kill-the-coordinator
// scenario: a TCP federation loses its coordinator after every vital
// participant voted PREPARED and the commit decision hit the journal,
// but before the decision reached one site. A fresh federation built on
// the same journal file must find the in-doubt participant, re-attach
// its parked session, drive it to the logged COMMIT, and compact the
// journal.
func TestCrashRecoveryDeliversLoggedCommit(t *testing.T) {
	fed, servers, sc, proxy, _ := faultFederation(t)
	jpath := filepath.Join(t.TempDir(), "mt.journal")
	j, err := mtlog.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	fed.SetJournal(j)
	sc.armed.Store(true)
	sc.refuse.Store(true) // outage outlasts the first coordinator

	results, err := fed.ExecScript(vitalUpdate)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateUnresolved {
		t.Fatalf("state = %s, want unresolved before the crash (tasks %v)", sync.State, sync.TaskStates)
	}
	// Coordinator "crashes" here: fed is abandoned without closing the
	// journal, exactly as a killed process would leave it.

	// The site comes back; a fresh coordinator is built from nothing but
	// the journal file.
	proxy.SetRefuse(false)
	j2, err := mtlog.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	fed2 := New()
	fed2.SetJournal(j2)

	rep, err := fed2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Multitransactions != 1 {
		t.Fatalf("multitransactions examined = %d, want 1", rep.Multitransactions)
	}
	if len(rep.Resolved) != 1 || !rep.Resolved[0].Commit {
		t.Fatalf("resolved = %+v, want one participant driven to commit", rep.Resolved)
	}
	if len(rep.Unreachable) != 0 {
		t.Fatalf("unreachable = %+v", rep.Unreachable)
	}
	// The participant really reached the logged decision.
	if f := unitedRate(t, servers["united"]); f < 131.9 || f > 132.1 {
		t.Fatalf("united rate = %v, want 132 (committed by recovery)", f)
	}
	// The multitransaction is fully terminal: ended and compacted away.
	states, err := j2.States()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatalf("journal still holds %d multitransactions after compaction", len(states))
	}
	// Recovery is idempotent: a second pass finds nothing.
	rep2, err := fed2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Multitransactions != 0 || len(rep2.Resolved) != 0 || len(rep2.CompRuns) != 0 {
		t.Fatalf("second recovery pass not a no-op: %+v", rep2)
	}
}

// execSeverClient severs its proxy right after a successful Commit once
// armed — killing the connection between an autocommit subquery
// committing and its compensation running on the same session.
type execSeverClient struct {
	lam.Client
	proxy *netfault.Proxy
	armed atomic.Bool
}

func (c *execSeverClient) Open(ctx context.Context, db string) (lam.Session, error) {
	s, err := c.Client.Open(ctx, db)
	if err != nil {
		return nil, err
	}
	return &execSeverSession{Session: s, c: c}, nil
}

type execSeverSession struct {
	lam.Session
	c *execSeverClient
}

func (s *execSeverSession) Commit(ctx context.Context) error {
	err := s.Session.Commit(ctx)
	if err == nil && s.c.armed.Load() {
		s.c.proxy.Sever()
	}
	return err
}

// TestCrashRecoveryCompletesCompensation: an autocommit site commits
// its subquery, the unit aborts (the other vital site fails), and the
// compensating subquery dies on a severed connection. The journal keeps
// the multitransaction open; Recover re-runs the compensation from the
// journaled SQL — exactly once, verified against the LAM-side data.
func TestCrashRecoveryCompletesCompensation(t *testing.T) {
	fed := New()
	fed.SetRecovery(lam.RetryPolicy{Attempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}, time.Second)

	// continental: autocommit-only (relies on compensation), behind a
	// severing proxy. united: 2PC, with an injected Exec fault so the
	// unit takes the abort path.
	plan := &topology.Plan{Sites: paperSites("continental", "united")}
	plan.Sites[0].Profile = ldbms.ProfileAutoCommitOnly()
	cont, unit := openSite(t, plan.Sites[0]), openSite(t, plan.Sites[1])
	unit.Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "united"})
	unitAddr := serveLAM(t, unit).Addr()
	proxy, err := netfault.New(serveLAM(t, cont).Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	inner, err := lam.DialWith(context.Background(), proxy.Addr(), lam.DialOptions{
		CallTimeout: 2 * time.Second,
		Retry:       lam.RetryPolicy{Attempts: 1, BaseDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	sc := &execSeverClient{Client: inner, proxy: proxy}
	fed.RegisterClient(proxy.Addr(), sc)

	setup := plan.Script(func(s ldbms.Spec) string {
		if s.DB == "continental" {
			return proxy.Addr()
		}
		return unitAddr
	})
	if _, err := fed.ExecScript(setup); err != nil {
		t.Fatal(err)
	}

	jpath := filepath.Join(t.TempDir(), "mt.journal")
	j, err := mtlog.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	fed.SetJournal(j)

	// Arm after setup so only the unit's first Exec (the committing
	// update) triggers the sever; the compensation then fails.
	sc.armed.Store(true)
	if _, err := fed.ExecScript(e3Script); err != nil {
		t.Fatal(err)
	}
	// continental committed the raise; the compensation died with the
	// connection.
	if got := remoteRate(t, cont, "continental", "SELECT rate FROM flights WHERE flnu = 100"); got < 109.9 || got > 110.1 {
		t.Fatalf("continental rate = %v, want 110 (update committed, compensation dead)", got)
	}
	sc.armed.Store(false)

	// Coordinator crashes; a fresh one recovers from the journal alone.
	j2, err := mtlog.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	fed2 := New()
	fed2.SetJournal(j2)
	rep, err := fed2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CompRuns) != 1 {
		t.Fatalf("comp runs = %v, want exactly one", rep.CompRuns)
	}
	if got := remoteRate(t, cont, "continental", "SELECT rate FROM flights WHERE flnu = 100"); got < 99.99 || got > 100.01 {
		t.Fatalf("continental rate = %v, want 100 (compensated)", got)
	}

	// Exactly once: a second pass re-runs nothing and the rate stands.
	rep2, err := fed2.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.CompRuns) != 0 || rep2.Multitransactions != 0 {
		t.Fatalf("second recovery pass not a no-op: %+v", rep2)
	}
	if got := remoteRate(t, cont, "continental", "SELECT rate FROM flights WHERE flnu = 100"); got < 99.99 || got > 100.01 {
		t.Fatalf("continental rate = %v after second pass, want 100 (compensation must not repeat)", got)
	}
}

func remoteRate(t *testing.T, srv *ldbms.Server, db, query string) float64 {
	t.Helper()
	sess, err := srv.OpenSession(db)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec(query)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := res.Rows[0][0].AsFloat()
	return f
}
