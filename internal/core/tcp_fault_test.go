package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/netfault"
	"msql/internal/obs"
	"msql/internal/topology"
)

// severClient wraps a real TCP LAM client so a test can deterministically
// kill the network in the paper's worst window: after PREPARE succeeds and
// before the coordinator's COMMIT arrives. When armed, the wrapped
// session's Prepare severs the proxy right after it returns success —
// client-side, so there is no timing race with the server's reply.
type severClient struct {
	lam.Client
	proxy  *netfault.Proxy
	armed  atomic.Bool
	refuse atomic.Bool // also refuse reconnects after the sever (permanent outage)
}

func (c *severClient) Open(ctx context.Context, db string) (lam.Session, error) {
	s, err := c.Client.Open(ctx, db)
	if err != nil {
		return nil, err
	}
	return &severSession{Session: s, c: c}, nil
}

type severSession struct {
	lam.Session
	c *severClient
}

func (s *severSession) Prepare(ctx context.Context) error {
	err := s.Session.Prepare(ctx)
	if err == nil && s.c.armed.Load() {
		s.c.proxy.Sever()
		if s.c.refuse.Load() {
			s.c.proxy.SetRefuse(true)
		}
	}
	return err
}

// faultFederation builds a two-site federation where united sits behind a
// netfault proxy with a severing wrapper client. Recovery is tightened so
// the permanent-outage path stays fast. The last result holds each
// database's LAM server.
func faultFederation(t *testing.T) (*Federation, map[string]*ldbms.Server, *severClient, *netfault.Proxy, map[string]*lam.TCPServer) {
	t.Helper()
	servers := map[string]*ldbms.Server{}
	lams := map[string]*lam.TCPServer{}
	fed := New()
	fed.SetRecovery(lam.RetryPolicy{Attempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}, time.Second)

	plan := &topology.Plan{Sites: paperSites("continental", "united")}
	addrs := map[string]string{}
	var proxy *netfault.Proxy
	var sc *severClient
	for _, sp := range plan.Sites {
		srv := openSite(t, sp)
		ts := serveLAM(t, srv)
		servers[sp.DB] = srv
		lams[sp.DB] = ts

		site := ts.Addr()
		if sp.DB == "united" {
			var err error
			proxy, err = netfault.New(ts.Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { proxy.Close() })
			site = proxy.Addr()
			inner, err := lam.DialWith(context.Background(), site, lam.DialOptions{
				CallTimeout: 2 * time.Second,
				Retry:       lam.RetryPolicy{Attempts: 1, BaseDelay: 5 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			sc = &severClient{Client: inner, proxy: proxy}
			fed.RegisterClient(site, sc)
		}
		addrs[sp.Service] = site
	}
	if _, err := fed.ExecScript(plan.Script(func(s ldbms.Spec) string { return addrs[s.Service] })); err != nil {
		t.Fatal(err)
	}
	return fed, servers, sc, proxy, lams
}

const vitalUpdate = `
USE continental VITAL united VITAL
UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston'
`

func unitedRate(t *testing.T, srv *ldbms.Server) float64 {
	t.Helper()
	sess, err := srv.OpenSession("united")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec("SELECT rates FROM flight WHERE fn = 300")
	if err != nil {
		t.Fatal(err)
	}
	f, _ := res.Rows[0][0].AsFloat()
	return f
}

func TestSeverAfterPrepareRecoversToSuccess(t *testing.T) {
	fed, servers, sc, _, _ := faultFederation(t)
	sc.armed.Store(true)

	// The connection to united dies between its PREPARE and the COMMIT
	// decision. The coordinator must reconnect, re-bind the parked
	// prepared session, and drive it to commit — converging on Success,
	// never silently Incorrect.
	results, err := fed.ExecScript(vitalUpdate)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateSuccess {
		t.Fatalf("state = %s, want success after in-doubt recovery (tasks %v, unresolved %+v)",
			sync.State, sync.TaskStates, sync.Unresolved)
	}
	if len(sync.Unresolved) != 0 {
		t.Fatalf("unresolved = %+v", sync.Unresolved)
	}
	// Both databases really committed the 10% raise.
	if f := unitedRate(t, servers["united"]); f < 131.9 || f > 132.1 {
		t.Fatalf("united rate = %v, want 132 (committed via recovery)", f)
	}
	sess, _ := servers["continental"].OpenSession("continental")
	defer sess.Close()
	res, _ := sess.Exec("SELECT rate FROM flights WHERE flnu = 100")
	if f, _ := res.Rows[0][0].AsFloat(); f < 109.9 || f > 110.1 {
		t.Fatalf("continental rate = %v, want 110", f)
	}
}

func TestPermanentOutageReportsUnresolvedParticipant(t *testing.T) {
	fed, servers, sc, proxy, _ := faultFederation(t)
	sc.armed.Store(true)
	sc.refuse.Store(true) // the sever will be permanent: no reconnects

	results, err := fed.ExecScript(vitalUpdate)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	// With a vital participant stuck in doubt the outcome is neither
	// Success nor Incorrect — it must be reported as Unresolved, with
	// enough information to resolve it later.
	if sync.State != StateUnresolved {
		t.Fatalf("state = %s, want unresolved (tasks %v)", sync.State, sync.TaskStates)
	}
	if len(sync.Unresolved) != 1 {
		t.Fatalf("unresolved = %+v, want exactly the united participant", sync.Unresolved)
	}
	p := sync.Unresolved[0]
	if p.Entry != "united" || p.Addr != proxy.Addr() || p.SessionID == 0 || !p.Commit {
		t.Fatalf("participant = %+v", p)
	}

	// The site comes back: the operator (or a later pass) delivers the
	// recorded decision through a client of its own and the update lands.
	proxy.SetRefuse(false)
	c, err := lam.Dial(p.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Resolve(context.Background(), p.SessionID, p.Commit)
	if err != nil {
		t.Fatal(err)
	}
	if st != ldbms.StateCommitted {
		t.Fatalf("resolved state = %v", st)
	}
	if f := unitedRate(t, servers["united"]); f < 131.9 || f > 132.1 {
		t.Fatalf("united rate after manual resolve = %v, want 132", f)
	}
}

func TestFederationCallTimeoutBoundsBlackholedSite(t *testing.T) {
	servers := map[string]*ldbms.Server{}
	fed := New()
	const timeout = 200 * time.Millisecond
	fed.CallTimeout = timeout

	srv := openSite(t, paperSites("united")[0])
	servers["united"] = srv
	ts := serveLAM(t, srv)
	proxy, err := netfault.New(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	setup := fmt.Sprintf(`
INCORPORATE SERVICE svc_unit SITE '%s' CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE united FROM SERVICE svc_unit;
`, proxy.Addr())
	if _, err := fed.ExecScript(setup); err != nil {
		t.Fatal(err)
	}

	proxy.SetBlackhole(true)
	start := time.Now()
	_, err = fed.ExecScript("USE united\nSELECT fn FROM flight")
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("query against a black-holed site should fail")
	}
	// Every LAM call is bounded by CallTimeout; with the default 2-retry
	// control policy the whole query fails well inside a few timeouts
	// instead of hanging until TCP gives up.
	if elapsed > 10*timeout {
		t.Fatalf("elapsed = %v with CallTimeout %v — deadline not honored", elapsed, timeout)
	}
}

func TestExecScriptContextCancellation(t *testing.T) {
	fed, _, _, proxy, _ := faultFederation(t)
	proxy.SetDelay(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 75*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := fed.ExecScriptContext(ctx, "USE united\nSELECT fn FROM flight")
	if err == nil {
		t.Fatal("script should fail at the context deadline")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("elapsed = %v, cancellation not honored", elapsed)
	}
}

// TestHangUpDuringVoteOrDecisionLeavesNothingInDoubt cancels a VITAL
// unit while united's reply is held back by the proxy, after united has
// served the request: during the exec that carries its vote, during the
// vote of a session on a fresh connection (which does not know its
// session id before the reply, so votes in a request of its own), and
// during the COMMIT decision. A request cut after it was written has an
// unknown outcome, not a failed one, so the coordinator's own recovery
// loop drives the participant to the unit's decision before the call
// returns: the unit ends in its decision's state, never Incorrect, no
// site keeps a parked session, and no Recover runs. In the "vote in
// flight" case the client hangs up while united's vote is still held in
// the network: recovery resolves the session first, so the vote arrives
// after united answered "no session", and must be refused.
func TestHangUpDuringVoteOrDecisionLeavesNothingInDoubt(t *testing.T) {
	for _, tc := range []struct {
		name  string
		warm  bool     // run a statement first, so the pools hold connections
		ops   []string // served once per site, together
		cut   int64    // how many of those are served when the client hangs up
		state GlobalState
		rate  float64 // united's rate once the call returns
	}{
		{"vote", true, []string{"exec+prepare"}, 2, StateAborted, 120},
		{"vote in flight", true, []string{"exec+prepare"}, 1, StateAborted, 120},
		{"fresh vote", false, []string{"exec+prepare", "prepare"}, 2, StateAborted, 120},
		{"decision", true, []string{"commit"}, 2, StateSuccess, 132},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fed, servers, _, proxy, lams := faultFederation(t)
			if tc.warm {
				if _, err := fed.ExecScript("USE continental united\nSELECT rate% FROM flight%"); err != nil {
					t.Fatal(err)
				}
			}
			requests := obs.Default().CounterVec("msql_server_requests_total", "", "op")
			served := func() (n int64) {
				for _, op := range tc.ops {
					n += requests.With(op).Value()
				}
				return n
			}
			before, readsBefore := served(), proxy.ClientReads()
			// The hang-up waits for united's request to be in the proxy's
			// hands as well: a cancel before it is written would fail the
			// open instead of cutting a request short.
			held := func() bool { return served()-before >= tc.cut && proxy.ClientReads() > readsBefore }
			proxy.SetDelay(100 * time.Millisecond)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			go func() {
				for deadline := time.Now().Add(10 * time.Second); !held() && ctx.Err() == nil && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				proxy.SetDelay(0)
				cancel()
			}()
			results, err := fed.ExecScriptContext(ctx, vitalUpdate)
			if err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(2 * time.Second); served()-before < 2 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond) // a request in flight at the hang-up arrives late
			}
			if n := served() - before; n != 2 {
				t.Fatalf("%v served %d times, want once per site", tc.ops, n)
			}
			if sync := results[len(results)-1]; sync.State != tc.state {
				t.Errorf("state = %s, want %s (tasks %v)", sync.State, tc.state, sync.TaskStates)
			}
			for db, ts := range lams {
				if ids := ts.InDoubt(); len(ids) != 0 {
					t.Errorf("%s: sessions %v in doubt after the call returned", db, ids)
				}
			}
			if f := unitedRate(t, servers["united"]); math.Abs(f-tc.rate) > 0.01 {
				t.Errorf("united rate = %v, want %v", f, tc.rate)
			}
		})
	}
}
