package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"msql/internal/backend"
	"msql/internal/core"
	"msql/internal/csvstore"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/mdserver"
	"msql/internal/mtlog"
	"msql/internal/relbackend"
	"msql/internal/relstore"
)

type siteKind uint8

const (
	siteMem  siteKind = iota // relstore pages in RAM, 2PC
	siteDisk                 // relstore.Open{Dir}, 2PC, checkpoint on commit
	siteCSV                  // csvstore.Open(dir), autocommit-only
)

// siteSpec is one site of a workload's federation. poolPages 0 keeps the
// storage default.
type siteSpec struct {
	service, db string
	kind        siteKind
	poolPages   int
}

// site is one running LDBMS behind a LAM on loopback TCP.
type site struct {
	spec  siteSpec
	store *relstore.Store // nil on the csv site
	srv   *ldbms.Server
	tcp   *lam.TCPServer
}

// federation is one workload's full stack: sites, LAMs, coordinator
// journal, coordinator server, and the client connections driving it.
type federation struct {
	dir     string
	sites   []*site
	fed     *core.Federation
	journal *mtlog.Journal
	md      *mdserver.Server
	clients []*mdserver.Client
	setup   time.Duration
}

// build stands a workload's federation up under dir and dials clients
// connections to it; the time it takes is the workload's set-up time
// (start sites, load, INCORPORATE/IMPORT, dial). The federation dials its
// LAMs itself from the INCORPORATE site addresses, so the runs measure
// whatever dial options core ships with. A non-nil rec wraps the public
// seams with timing decorators.
func build(w *workload, dir string, rec *recorder, clients int) (f *federation, err error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f = &federation{dir: dir, fed: core.New()}
	defer func() {
		if err != nil {
			f.close()
			f = nil
		}
	}()
	f.journal, err = mtlog.Open(filepath.Join(dir, "coord.journal"))
	if err != nil {
		return nil, err
	}
	f.fed.SetJournal(f.journal)

	var script strings.Builder
	for i, spec := range w.sites {
		s, err := startSite(w, i, spec, dir, rec)
		if s != nil {
			f.sites = append(f.sites, s)
		}
		if err != nil {
			return nil, fmt.Errorf("site %s: %w", spec.service, err)
		}
		mode := "NOCOMMIT"
		if spec.kind == siteCSV {
			mode = "COMMIT"
		}
		fmt.Fprintf(&script, "INCORPORATE SERVICE %s SITE '%s' CONNECTMODE CONNECT COMMITMODE %s;\n", spec.service, s.tcp.Addr(), mode)
		fmt.Fprintf(&script, "IMPORT DATABASE %s FROM SERVICE %s;\n", spec.db, spec.service)
	}
	if _, err := f.fed.ExecScript(script.String()); err != nil {
		return nil, fmt.Errorf("incorporate: %w", err)
	}
	if rec != nil {
		// Wrap the very clients the federation dialled.
		for _, s := range f.sites {
			c, err := f.fed.Resolve(s.tcp.Addr())
			if err != nil {
				return nil, err
			}
			f.fed.RegisterClient(s.tcp.Addr(), &tracedClient{Client: c, rec: rec, site: s.spec.service})
		}
	}
	f.md, err = mdserver.Serve("127.0.0.1:0", f.fed, mdserver.Options{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < clients; i++ {
		c, err := mdserver.Dial(f.md.Addr(), fmt.Sprintf("c%d", i))
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	f.setup = time.Since(start)
	return f, nil
}

// startSite creates one site's backend, loads the workload's rows through
// a local session, and serves it behind a journaled LAM.
func startSite(w *workload, idx int, spec siteSpec, dir string, rec *recorder) (*site, error) {
	s := &site{spec: spec}
	var be backend.Backend
	profile := ldbms.ProfileOracleLike()
	switch spec.kind {
	case siteCSV:
		cs, err := csvstore.Open(filepath.Join(dir, spec.service+".csv"))
		if err != nil {
			return nil, err
		}
		be, profile = cs, ldbms.ProfileAutoCommitOnly()
	case siteDisk:
		st, err := relstore.Open(relstore.Options{Dir: filepath.Join(dir, spec.service+".data"), PoolPages: spec.poolPages})
		if err != nil {
			return nil, err
		}
		s.store, be = st, relbackend.New(st)
	default:
		s.store = relstore.NewStore()
		be = relbackend.New(s.store)
	}
	if rec != nil {
		be = &tracedBackend{Backend: be, rec: rec, site: spec.service}
	}
	s.srv = ldbms.NewServerOn(spec.service, profile, int64(idx)+1, be)
	if err := s.srv.CreateDatabase(spec.db); err != nil {
		return s, err
	}
	if err := s.execLocal(w.boot(idx)...); err != nil {
		return s, err
	}
	pj, err := mtlog.OpenParticipant(filepath.Join(dir, spec.service+".journal"))
	if err != nil {
		return s, err
	}
	s.tcp, err = lam.ServeWith("127.0.0.1:0", s.srv, lam.ServeOptions{Journal: pj})
	if err != nil {
		pj.Close()
		return s, err
	}
	return s, nil
}

// execLocal runs statements on the site through an in-process session and
// commits them — bootstrap loads and post-run invariant reads bypass the
// federation on purpose.
func (s *site) execLocal(stmts ...string) error {
	_, err := s.queryLocal(stmts...)
	return err
}

// queryLocal is execLocal returning the last statement's rows rendered as
// strings.
func (s *site) queryLocal(stmts ...string) ([][]string, error) {
	sess, err := s.srv.OpenSession(s.spec.db)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	var rows [][]string
	for _, q := range stmts {
		res, err := sess.Exec(q)
		if err != nil {
			return nil, fmt.Errorf("%.60q: %w", q, err)
		}
		rows = rows[:0]
		for _, r := range res.Rows {
			cells := make([]string, len(r))
			for i, v := range r {
				cells[i] = v.String()
			}
			rows = append(rows, cells)
		}
	}
	return rows, sess.Commit()
}

// close tears the stack down client side first and removes the data
// directory. It is safe on a partially built federation.
func (f *federation) close() {
	for _, c := range f.clients {
		c.Close()
	}
	if f.md != nil {
		f.md.Close()
	}
	for _, s := range f.sites {
		if s.tcp != nil {
			if c, err := f.fed.Resolve(s.tcp.Addr()); err == nil {
				c.Close()
			}
			s.tcp.Close()
		}
		if s.srv != nil {
			s.srv.Close()
		}
	}
	if f.journal != nil {
		f.journal.Close()
	}
	os.RemoveAll(f.dir)
}
