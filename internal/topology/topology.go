// Package topology generates and serves fleets of test sites. Each
// site is an ldbms.Spec, built by ldbms.Open; the same spec is served
// in-process by Plan.Launch, as a crash-test child process by
// LaunchSite, and by the demo federation (PaperSites).
//
// A Spec (site count, backend mix, seed) deterministically expands into
// a Plan of heterogeneous sites: the full relstore engine or the
// flat-file csv store, behind Oracle-like two-phase, Ingres-like
// DDL-autocommit or autocommit-only profiles. The same seed always
// yields the same fleet, so a failing 50-site scenario replays exactly.
// Script emits the INCORPORATE SERVICE / IMPORT DATABASE scenario script
// and Units generates deterministic mixed-capability multitransaction
// workloads over the fleet.
package topology

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/mtlog"
)

const (
	// ingresFraction of a generated fleet's sites run the Ingres-like
	// profile (DDL autocommits); the rest of the rel sites are
	// Oracle-like.
	ingresFraction = 0.25
	// rowsPerTable seeds each generated table.
	rowsPerTable = 4
	// compactEvery compacts a served site's participant journal after
	// every acknowledged session, so journals drain promptly in tests.
	compactEvery = 1
)

// Spec describes the fleet to generate. The zero value is usable:
// defaults fill in below.
type Spec struct {
	// Sites is the number of LAM sites (default 12, minimum 4).
	Sites int
	// Seed makes the generation deterministic; the same seed and spec
	// always produce the same plan (default 1).
	Seed int64
	// CSVFraction is the fraction of sites on the csv backend with the
	// autocommit-only profile (default 0.25).
	CSVFraction float64
	// TombstoneTTLMS bounds how long Launch's servers keep an
	// unacknowledged outcome tombstone (zero = server default).
	TombstoneTTLMS int
}

func (s Spec) withDefaults() Spec {
	if s.Sites <= 0 {
		s.Sites = 12
	}
	if s.Sites < 4 {
		s.Sites = 4
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.CSVFraction <= 0 {
		s.CSVFraction = 0.25
	}
	return s
}

// autoCommitOnly reports a site without a prepare interface: the
// scenario script incorporates it COMMITMODE COMMIT and vital workload
// entries on it carry compensation.
func autoCommitOnly(s ldbms.Spec) bool { return !s.Capabilities().TwoPC }

// serve serves srv on addr with a participant journal at journal.
func serve(addr string, srv *ldbms.Server, journal string, tombstoneTTL time.Duration) (*lam.TCPServer, error) {
	j, err := mtlog.OpenParticipant(journal)
	if err != nil {
		return nil, err
	}
	ts, err := lam.ServeWith(addr, srv, lam.ServeOptions{
		Journal:      j,
		TombstoneTTL: tombstoneTTL,
		CompactEvery: compactEvery,
	})
	if err != nil {
		j.Close()
		return nil, err
	}
	return ts, nil
}

// Plan is a generated fleet layout.
type Plan struct {
	Spec  Spec
	Sites []ldbms.Spec
}

// Generate deterministically expands a Spec into a Plan. Backends are
// assigned by a seeded shuffle: round(Sites*CSVFraction) csv sites,
// round(Sites*ingresFraction) Ingres-like sites, Oracle-like remainder.
func Generate(spec Spec) *Plan {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))
	nCSV := int(float64(spec.Sites)*spec.CSVFraction + 0.5)
	nIng := int(float64(spec.Sites)*ingresFraction + 0.5)
	if nCSV < 1 {
		nCSV = 1
	}
	if nIng < 1 {
		nIng = 1
	}
	if nCSV+nIng >= spec.Sites {
		nIng = spec.Sites - nCSV - 1
		if nIng < 0 {
			nIng = 0
		}
	}
	perm := rng.Perm(spec.Sites)
	p := &Plan{Spec: spec, Sites: make([]ldbms.Spec, spec.Sites)}
	for i, idx := range perm {
		s := ldbms.Spec{
			Service: fmt.Sprintf("svc_t%02d", idx),
			DB:      fmt.Sprintf("db%02d", idx),
			Profile: ldbms.ProfileOracleLike(),
			Backend: ldbms.BackendRel,
			Seed:    int64(idx) + 1,
		}
		switch {
		case i < nCSV:
			s.Profile, s.Backend = ldbms.ProfileAutoCommitOnly(), ldbms.BackendCSV
		case i < nCSV+nIng:
			s.Profile = ldbms.ProfileIngresLike()
		}
		// Every site carries acct; even-indexed sites also carry
		// orders, so multitable queries exercise pertinence skipping.
		tables := []string{"acct"}
		if idx%2 == 0 {
			tables = append(tables, "orders")
		}
		s.Boot = bootSQL(tables, rowsPerTable)
		p.Sites[idx] = s
	}
	return p
}

// bootSQL builds the deterministic base state for a site.
func bootSQL(tables []string, rows int) []string {
	var boot []string
	for _, tbl := range tables {
		boot = append(boot, fmt.Sprintf(
			"CREATE TABLE %s (id INTEGER, owner CHAR(16), bal FLOAT)", tbl))
		for r := 1; r <= rows; r++ {
			boot = append(boot, fmt.Sprintf(
				"INSERT INTO %s VALUES (%d, 'seed%d', 100.0)", tbl, r, r))
		}
	}
	return boot
}

// Script emits the scenario script that federates the plan: per site
// one INCORPORATE SERVICE, its CONNECTMODE and COMMITMODE taken from the
// site's profile (the capability check rejects NOCOMMIT for a site that
// cannot prepare), and one IMPORT DATABASE. addr maps a site to its
// listen address; a nil addr, or an empty address, leaves SITE out, so
// the service is reached by the name its client is registered under.
func (p *Plan) Script(addr func(ldbms.Spec) string) string {
	var b strings.Builder
	for _, s := range p.Sites {
		prof := s.Capabilities()
		site := ""
		if addr != nil {
			if a := addr(s); a != "" {
				site = fmt.Sprintf(" SITE '%s'", a)
			}
		}
		connect, commit := "CONNECT", "NOCOMMIT"
		if !prof.MultiDatabase {
			connect = "NOCONNECT"
		}
		if !prof.TwoPC {
			commit = "COMMIT"
		}
		fmt.Fprintf(&b, "INCORPORATE SERVICE %s%s CONNECTMODE %s COMMITMODE %s;\n",
			s.Service, site, connect, commit)
		fmt.Fprintf(&b, "IMPORT DATABASE %s FROM SERVICE %s;\n", s.DB, s.Service)
	}
	return b.String()
}

// Site is one served fleet member: its spec, the in-process server, and
// the TCP listener journaling prepared sessions to JournalPath.
type Site struct {
	Spec        ldbms.Spec
	Server      *ldbms.Server
	TCP         *lam.TCPServer
	JournalPath string
}

// Addr is the site's listen address.
func (s *Site) Addr() string { return s.TCP.Addr() }

// RowCount counts the acct rows with the given id, asking the
// in-process server directly — the ground truth for atomicity checks
// (0 = no effect, 1 = applied exactly once, >1 = double-applied).
func (s *Site) RowCount(id int) (int, error) {
	sess, err := s.Server.OpenSession(s.Spec.DB)
	if err != nil {
		return 0, err
	}
	defer sess.Close()
	res, err := sess.Exec(fmt.Sprintf("SELECT id FROM acct WHERE id = %d", id))
	if err != nil {
		return 0, err
	}
	return len(res.Rows), nil
}

// Fleet is a plan served in-process: one LAM TCP server per site, each
// with its own participant journal under the launch directory.
type Fleet struct {
	Plan  *Plan
	Sites []*Site
}

// Launch stands the plan up in-process: each site is built and served
// on an ephemeral loopback port with a participant journal at
// <dir>/<service>.journal. A csv site keeps its tables under dir (see
// onDir), so a launch on the same dir reopens them instead of booting.
// Services
// listed in skip are omitted — crash tests serve those as child
// processes (LaunchSite) instead.
func (p *Plan) Launch(dir string, skip ...string) (*Fleet, error) {
	f := &Fleet{Plan: p}
	ttl := time.Duration(p.Spec.TombstoneTTLMS) * time.Millisecond
	for _, spec := range p.Sites {
		if slices.Contains(skip, spec.Service) {
			continue
		}
		site, err := launchSite(dir, onDir(dir, spec), ttl)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("topology: site %s: %w", spec.Service, err)
		}
		f.Sites = append(f.Sites, site)
	}
	return f, nil
}

// onDir puts a csv site without a Dir at <dir>/<service>.data. A rel
// site stays in memory: its participant journal would replay committed
// redo on top of its own checkpoint.
func onDir(dir string, s ldbms.Spec) ldbms.Spec {
	if s.Backend == ldbms.BackendCSV && s.Dir == "" {
		s.Dir = filepath.Join(dir, s.Service+".data")
	}
	return s
}

func launchSite(dir string, spec ldbms.Spec, tombstoneTTL time.Duration) (*Site, error) {
	srv, err := ldbms.Open(spec)
	if err != nil {
		return nil, err
	}
	jp := filepath.Join(dir, spec.Service+".journal")
	ts, err := serve("127.0.0.1:0", srv, jp, tombstoneTTL)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &Site{Spec: spec, Server: srv, TCP: ts, JournalPath: jp}, nil
}

// Close shuts every site down (listener first, then the server).
func (f *Fleet) Close() {
	for _, s := range f.Sites {
		s.TCP.Close()
		s.Server.Close()
	}
}

// Site finds a served site by service name, nil when absent.
func (f *Fleet) Site(service string) *Site {
	for _, s := range f.Sites {
		if s.Spec.Service == service {
			return s
		}
	}
	return nil
}

// Script emits the scenario script federating the served sites at their
// live listen addresses.
func (f *Fleet) Script() string {
	served := &Plan{Spec: f.Plan.Spec}
	for _, s := range f.Sites {
		served.Sites = append(served.Sites, s.Spec)
	}
	return served.Script(func(spec ldbms.Spec) string { return f.Site(spec.Service).Addr() })
}
