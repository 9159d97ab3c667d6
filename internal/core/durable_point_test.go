package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/netfault"
	"msql/internal/wal"
)

// pointSite is one participant of the durable-point tests: an LDBMS
// behind a journaled LAM, reached through a proxy a test can cut.
type pointSite struct {
	db    string
	srv   *ldbms.Server
	ts    *lam.TCPServer
	proxy *netfault.Proxy
}

// pointSites serves two 2PC sites, dpa and dpb, each holding acct row
// (1, 0.0), behind LAMs with participant journals.
func pointSites(t *testing.T) []*pointSite {
	t.Helper()
	var sites []*pointSite
	for _, db := range []string{"dpa", "dpb"} {
		srv := openSite(t, ldbms.Spec{Service: "svc_" + db, DB: db, Boot: []string{
			"CREATE TABLE acct (id INTEGER, bal FLOAT)", "INSERT INTO acct VALUES (1, 0.0)",
		}})
		pj, err := mtlog.OpenParticipant(filepath.Join(t.TempDir(), db+".journal"))
		if err != nil {
			t.Fatal(err)
		}
		ts, err := lam.ServeWith("127.0.0.1:0", srv, lam.ServeOptions{Journal: pj})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ts.Close() })
		proxy, err := netfault.New(ts.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
		sites = append(sites, &pointSite{db: db, srv: srv, ts: ts, proxy: proxy})
	}
	return sites
}

// pointFederation is a coordinator over sites, journaled at path. Its
// crash cuts every site off once the site votes and refuses reconnects,
// so the unit's decision never reaches anyone.
func pointFederation(t *testing.T, sites []*pointSite, path string) (fed *Federation, crash func()) {
	t.Helper()
	fed = New()
	fed.SetRecovery(lam.RetryPolicy{Attempts: 1, BaseDelay: time.Millisecond}, time.Second)
	var script strings.Builder
	var clients []*severClient
	for _, s := range sites {
		inner, err := lam.DialWith(context.Background(), s.proxy.Addr(), lam.DialOptions{CallTimeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		sc := &severClient{Client: inner, proxy: s.proxy}
		clients = append(clients, sc)
		fed.RegisterClient(s.proxy.Addr(), sc)
		fmt.Fprintf(&script, "INCORPORATE SERVICE svc_%s SITE '%s' CONNECTMODE CONNECT COMMITMODE NOCOMMIT;\nIMPORT DATABASE %s FROM SERVICE svc_%s;\n",
			s.db, s.proxy.Addr(), s.db, s.db)
	}
	if _, err := fed.ExecScript(script.String()); err != nil {
		t.Fatal(err)
	}
	j, err := mtlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	fed.SetJournal(j)
	return fed, func() {
		for _, sc := range clients {
			sc.refuse.Store(true)
			sc.armed.Store(true)
		}
	}
}

const pointUnit = "USE dpa VITAL dpb VITAL\nUPDATE acct SET bal = bal + 1 WHERE id = 1"

// durablePrefix returns the first bytes of a coordinator journal a crash
// is sure to leave: everything up to the end of its n-th forced record
// (a decision), none of the unforced records after it.
func durablePrefix(t *testing.T, data []byte, n int) []byte {
	t.Helper()
	frames, _, err := wal.Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	end := 0
	for _, fr := range frames {
		if n == 0 {
			break
		}
		end += wal.HeaderSize + len(fr.Payload)
		if mtlog.Type(fr.Type) == mtlog.TDecision {
			n--
		}
	}
	if n != 0 {
		t.Fatalf("journal holds fewer decisions than the cut needs")
	}
	return data[:end]
}

// recoverFrom restarts the coordinator on the journal prefix: a new
// federation, with clients of its own, reopens it and runs Recover.
func recoverFrom(t *testing.T, sites []*pointSite, prefix []byte) (*Federation, *RecoveryReport) {
	t.Helper()
	for _, s := range sites {
		s.proxy.SetRefuse(false) // the network is back for the restarted coordinator
	}
	path := filepath.Join(t.TempDir(), "restarted.journal")
	if err := os.WriteFile(path, prefix, 0o644); err != nil {
		t.Fatal(err)
	}
	fed, _ := pointFederation(t, sites, path)
	rep, err := fed.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(rep.Unreachable) != 0 {
		t.Fatalf("unreachable after recovery: %+v", rep.Unreachable)
	}
	for _, s := range sites {
		if n := len(s.ts.InDoubt()); n != 0 {
			t.Fatalf("%s: %d sessions still prepared after recovery", s.db, n)
		}
	}
	return fed, rep
}

func pointBalance(t *testing.T, s *pointSite) float64 {
	t.Helper()
	sess, err := s.srv.OpenSession(s.db)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec("SELECT bal FROM acct WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%s: acct rows = %v, want one", s.db, res.Rows)
	}
	f, _ := res.Rows[0][0].AsFloat()
	return f
}

// runPointUnit runs one unit and returns its sync result's state.
func runPointUnit(t *testing.T, fed *Federation) GlobalState {
	t.Helper()
	res, err := fed.ExecScript(pointUnit)
	if err != nil {
		t.Fatal(err)
	}
	return res[len(res)-1].State
}

// lastDecision returns the branches of the journal's last decision.
func lastDecision(t *testing.T, data []byte) []mtlog.Branch {
	t.Helper()
	recs, _, err := mtlog.DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	var last *mtlog.Record
	for i := range recs {
		if recs[i].Type == mtlog.TDecision {
			last = &recs[i]
		}
	}
	if last == nil || !last.Commit || len(last.Branches) != 2 {
		t.Fatalf("last decision = %+v, want a commit naming two branches", last)
	}
	return last.Branches
}

// TestCrashAfterVotesBeforeDecision: the coordinator dies once both
// sites voted but before its decision's fsync, so the durable journal
// ends at the previous unit's decision and names none of the votes.
// Recover's orphan sweep rolls every branch back; the rows keep the
// previous unit's effect only.
func TestCrashAfterVotesBeforeDecision(t *testing.T) {
	sites := pointSites(t)
	path := filepath.Join(t.TempDir(), "coord.journal")
	fed, crash := pointFederation(t, sites, path)
	if st := runPointUnit(t, fed); st != StateSuccess { // the previous unit
		t.Fatalf("first unit: %s", st)
	}
	crash()
	if st := runPointUnit(t, fed); st == StateSuccess {
		t.Fatal("the severed unit succeeded")
	}
	for _, s := range sites {
		if n := len(s.ts.InDoubt()); n != 1 {
			t.Fatalf("%s: %d parked votes, want the severed unit's one", s.db, n)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rep := recoverFrom(t, sites, durablePrefix(t, data, 1))
	if len(rep.Orphans) != len(sites) {
		t.Fatalf("orphans = %+v, want one per site", rep.Orphans)
	}
	for _, s := range sites {
		if b := pointBalance(t, s); b != 1 {
			t.Fatalf("%s: bal = %v, want 1 (the first unit only)", s.db, b)
		}
	}
}

// TestCrashAfterDecisionBeforeCommit: the decision's fsync completed,
// then no COMMIT reached either site. The durable journal ends with the
// decision, and Recover commits every branch it names.
func TestCrashAfterDecisionBeforeCommit(t *testing.T) {
	sites := pointSites(t)
	path := filepath.Join(t.TempDir(), "coord.journal")
	fed, crash := pointFederation(t, sites, path)
	crash()
	if st := runPointUnit(t, fed); st == StateSuccess {
		t.Fatal("the severed unit succeeded")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	branches := lastDecision(t, data)
	_, rep := recoverFrom(t, sites, durablePrefix(t, data, 1))
	committed := map[int64]bool{}
	for _, p := range rep.Resolved {
		committed[p.SessionID] = p.Commit
	}
	for _, b := range branches {
		if !committed[b.SessionID] {
			t.Fatalf("branch %+v not committed by recovery (resolved %+v)", b, rep.Resolved)
		}
	}
	if len(rep.Orphans) != 0 {
		t.Fatalf("the sweep took decided branches: %+v", rep.Orphans)
	}
	for _, s := range sites {
		if b := pointBalance(t, s); b != 1 {
			t.Fatalf("%s: bal = %v, want 1", s.db, b)
		}
	}
}

// TestCrashAfterCommitBeforeEnd: both sites committed, and the
// coordinator died before its unforced outcome and end records reached
// the disk. Recover drives the decided branches to commit again; each
// site answers from its tombstone (or, had the ack already arrived,
// with ErrNoSession), nothing is applied twice, and the unit ends.
func TestCrashAfterCommitBeforeEnd(t *testing.T) {
	sites := pointSites(t)
	path := filepath.Join(t.TempDir(), "coord.journal")
	fed, _ := pointFederation(t, sites, path)
	if st := runPointUnit(t, fed); st != StateSuccess {
		t.Fatalf("unit: %s", st)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	branches := lastDecision(t, data)
	restarted, rep := recoverFrom(t, sites, durablePrefix(t, data, 1))
	if len(rep.Resolved) != len(branches) {
		t.Fatalf("resolved %+v, want the decision's %d branches", rep.Resolved, len(branches))
	}
	for _, p := range rep.Resolved {
		if !p.Commit {
			t.Fatalf("resolved %+v as a rollback", p)
		}
	}
	states, err := restarted.Journal().States()
	if err != nil || len(states) != 0 {
		t.Fatalf("journal after recovery holds %d units (err %v), want the unit ended and compacted", len(states), err)
	}
	for _, s := range sites {
		if b := pointBalance(t, s); b != 1 {
			t.Fatalf("%s: bal = %v, want 1 (applied once)", s.db, b)
		}
	}
}
