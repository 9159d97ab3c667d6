package core

import (
	"testing"

	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/topology"
)

// paperFederation builds the full appendix setup, topology.PaperSites
// on five loopback services, incorporated and imported through MSQL
// statements. continental is optionally autocommit-only (for §3.3
// scenarios); the rest keep their paper profiles.
func paperFederation(t testing.TB, continentalAutoCommit bool) *Federation {
	t.Helper()
	sites := topology.PaperSites()
	if continentalAutoCommit {
		sites[0].Profile = ldbms.ProfileAutoCommitOnly()
	}
	return localFederation(t, sites...)
}

// paperSites returns the paper's sites of the named databases, in the
// order named.
func paperSites(dbs ...string) []ldbms.Spec {
	var out []ldbms.Spec
	for _, db := range dbs {
		for _, s := range topology.PaperSites() {
			if s.DB == db {
				out = append(out, s)
			}
		}
	}
	return out
}

// localFederation serves each site on a loopback LAM of a new
// federation, then incorporates and imports them all (Plan.Script).
func localFederation(t testing.TB, sites ...ldbms.Spec) *Federation {
	t.Helper()
	f := newFederation(t)
	for _, s := range sites {
		serveSite(t, f, s)
	}
	if _, err := f.ExecScript((&topology.Plan{Sites: sites}).Script(nil)); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return f
}

// localRate reads a rate directly from a server, bypassing MSQL.
func localRate(t testing.TB, f *Federation, svc, db, sql string) float64 {
	t.Helper()
	sess, err := f.Server(svc).OpenSession(db)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Rows[0][0].AsFloat()
	return v
}

// newFederation returns an empty federation whose loopback LAMs and
// servers close when the test ends.
func newFederation(t testing.TB) *Federation {
	f := New()
	t.Cleanup(func() { f.CloseServers() })
	return f
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

// serveSite opens the LDBMS spec describes and serves it on a loopback
// LAM of f.
func serveSite(t testing.TB, f *Federation, spec ldbms.Spec) *ldbms.Server {
	t.Helper()
	return serveLocal(t, f, openSite(t, spec))
}

// serveLAM serves srv on a loopback LAM of its own, closed when the
// test ends; the federation reaches it by site address.
func serveLAM(t testing.TB, srv *ldbms.Server) *lam.TCPServer {
	t.Helper()
	ts, err := lam.Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

// serveLocal serves srv on a loopback LAM of f.
func serveLocal(t testing.TB, f *Federation, srv *ldbms.Server) *ldbms.Server {
	t.Helper()
	if _, err := f.AddLocalServer(srv); err != nil {
		t.Fatal(err)
	}
	return srv
}
