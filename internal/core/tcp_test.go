package core

import (
	"testing"

	"msql/internal/ldbms"
	"msql/internal/obs"
	"msql/internal/sqlval"
	"msql/internal/topology"
	"msql/internal/translate"
	"msql/internal/wire"
)

// tcpFederation serves the paper's continental and united over real
// TCP LAMs and incorporates them by site address only.
func tcpFederation(t *testing.T) (*Federation, map[string]*ldbms.Server) {
	t.Helper()
	return tcpFederationWith(t, ldbms.ProfileOracleLike())
}

// tcpFederationWith is tcpFederation with both sites behind profile,
// which must offer 2PC.
func tcpFederationWith(t *testing.T, profile ldbms.Profile) (*Federation, map[string]*ldbms.Server) {
	t.Helper()
	servers := map[string]*ldbms.Server{}
	addrs := map[string]string{}
	plan := &topology.Plan{Sites: paperSites("continental", "united")}
	for i := range plan.Sites {
		s := &plan.Sites[i]
		s.Profile = profile
		servers[s.DB] = openSite(t, *s)
		addrs[s.Service] = serveLAM(t, servers[s.DB]).Addr()
	}
	fed := New()
	if _, err := fed.ExecScript(plan.Script(func(s ldbms.Spec) string { return addrs[s.Service] })); err != nil {
		t.Fatal(err)
	}
	return fed, servers
}

func TestTCPFederationVitalUpdate(t *testing.T) {
	fed, servers := tcpFederation(t)
	results, err := fed.ExecScript(`
USE continental VITAL united VITAL
UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston'
`)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateSuccess {
		t.Fatalf("state = %s", sync.State)
	}
	// Verify on the server directly.
	sess, _ := servers["continental"].OpenSession("continental")
	defer sess.Close()
	res, err := sess.Exec("SELECT rate FROM flights WHERE flnu = 100")
	if err != nil {
		t.Fatal(err)
	}
	f, _ := res.Rows[0][0].AsFloat()
	if f < 109.9 || f > 110.1 {
		t.Fatalf("rate over TCP = %v", f)
	}
}

func TestTCPFederationVitalAbort(t *testing.T) {
	fed, servers := tcpFederation(t)
	servers["united"].Faults().Add(ldbms.FaultRule{Op: ldbms.FaultPrepare, Database: "united"})
	results, err := fed.ExecScript(`
USE continental VITAL united VITAL
UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston'
`)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != StateAborted || sync.Status != translate.StatusAborted {
		t.Fatalf("state = %s status = %d", sync.State, sync.Status)
	}
	sess, _ := servers["continental"].OpenSession("continental")
	defer sess.Close()
	res, _ := sess.Exec("SELECT rate FROM flights WHERE flnu = 100")
	if f, _ := res.Rows[0][0].AsFloat(); f != 100 {
		t.Fatalf("rate = %v, 2PC abort over TCP failed", f)
	}
}

func TestTCPFederationCrossJoin(t *testing.T) {
	fed, _ := tcpFederation(t)
	results, err := fed.ExecScript(`
USE continental united
SELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.rate < u.rates
`)
	if err != nil {
		t.Fatal(err)
	}
	sel := results[len(results)-1]
	// continental's rates 100, 80 and 60 under united's 120, and 60
	// under its 70 too.
	if sel.Multitable == nil || len(sel.Multitable.Tables) != 1 || len(sel.Multitable.Tables[0].Rows) != 4 {
		t.Fatalf("join result = %+v", sel.Multitable)
	}
}

// TestTCPFederationSmallFloatLiteral: 0.00001 prints as 1e-05 when the
// engine deparses the task body, and the LAM has to parse that back —
// the lexer used to stop at the 'e'.
func TestTCPFederationSmallFloatLiteral(t *testing.T) {
	fed, servers := tcpFederation(t)
	results, err := fed.ExecScript(`
USE continental VITAL united VITAL
UPDATE flight% SET rate% = 0.00001 WHERE sour% = 'Houston'
`)
	if err != nil {
		t.Fatal(err)
	}
	if sync := results[len(results)-1]; sync.State != StateSuccess {
		t.Fatalf("state = %s: %+v", sync.State, sync)
	}
	for db, q := range map[string]string{
		"continental": "SELECT rate FROM flights WHERE flnu = 100",
		"united":      "SELECT rates FROM flight WHERE fn = 300",
	} {
		sess, _ := servers[db].OpenSession(db)
		res, err := sess.Exec(q)
		sess.Close()
		if err != nil || res.Rows[0][0] != sqlval.Float(1e-5) {
			t.Fatalf("%s: rate = %v, %v; want FLOAT 1e-05", db, res, err)
		}
	}
}

func TestTCPUnknownSiteError(t *testing.T) {
	fed := New()
	_, err := fed.ExecScript(`
INCORPORATE SERVICE ghost SITE '127.0.0.1:1' CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE d FROM SERVICE ghost;
`)
	if err == nil {
		t.Fatal("import from unreachable site should fail")
	}
}

// serverRequests snapshots msql_server_requests_total, every LAM server
// of the process summed, by request op (wire.Request.Op).
func serverRequests() map[string]int64 {
	served := obs.Default().CounterVec("msql_server_requests_total", "", "op")
	out := map[string]int64{}
	for k := wire.ReqHello; k <= wire.ReqLoad; k++ {
		out[k.String()] = served.With(k.String()).Value()
	}
	for _, op := range []string{"exec+commit", "exec+prepare"} {
		out[op] = served.With(op).Value()
	}
	return out
}

// TestWireRequestsPerStatement counts the LAM requests one statement
// costs over TCP once the connection pools are warm. A session's open
// rides its first request, its clean close the connection's next one,
// and a task's commit or vote its last exec, so none is a request of
// its own: a 2-site SELECT is one exec+commit per site (4 requests
// before: exec and commit per site), a VITAL UPDATE + COMMIT an
// exec+prepare and a commit per site (6 before: exec, prepare and
// commit per site), plus the unit's END acknowledgment per site, a
// forget, which goes out with or without a coordinator journal.
func TestWireRequestsPerStatement(t *testing.T) {
	fed, _ := tcpFederation(t)
	for _, tc := range []struct {
		name, script string
		want         map[string]int64
	}{
		{"2-site select", "USE continental united\nSELECT rate% FROM flight%",
			map[string]int64{"exec+commit": 2}},
		{"vital update", "USE continental VITAL united VITAL\nUPDATE flight% SET rate% = rate% * 1.0 WHERE sour% = 'Houston'\nCOMMIT",
			map[string]int64{"exec+prepare": 2, "commit": 2, "forget": 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				results, err := fed.ExecScript(tc.script)
				if err != nil {
					t.Fatal(err)
				}
				if last := results[len(results)-1]; last.State != StateSuccess {
					t.Fatalf("state = %s", last.State)
				}
			}
			run() // warm: the pools hold a connection per site from here on
			const stmts = 5
			before := serverRequests()
			for i := 0; i < stmts; i++ {
				run()
			}
			after := serverRequests()
			for op, n := range after {
				if got, want := (n-before[op])/stmts, tc.want[op]; got != want || (n-before[op])%stmts != 0 {
					t.Errorf("%s: %d requests in %d statements, want %d per statement", op, n-before[op], stmts, want)
				}
			}
		})
	}
}
