package ldbms

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"msql/internal/backend"
	"msql/internal/csvstore"
	"msql/internal/relbackend"
	"msql/internal/relstore"
	"msql/internal/schema"
)

// Server errors.
var (
	ErrNoTwoPC      = errors.New("ldbms: server does not support two-phase commit")
	ErrNoConnect    = errors.New("ldbms: server supports a single default database only")
	ErrSessionState = errors.New("ldbms: invalid session state for operation")
)

// Stats counts server operations for the benchmark harness.
type Stats struct {
	Execs         int64 // statements executed
	Loads         int64 // Session.Load batches (not counted in Execs)
	LoadedRows    int64 // rows those batches inserted
	Commits       int64
	SilentCommits int64 // commits forced by autocommit classes
	Rollbacks     int64
	Prepares      int64
}

// Server simulates one local DBMS product instance. The storage engine
// behind it is pluggable (see internal/backend): the capability profile
// is the only thing the federation above ever observes, exactly as the
// paper's multidatabase layer sees products through their INCORPORATE
// declarations rather than their internals.
type Server struct {
	name    string
	profile Profile
	be      backend.Backend
	faults  *FaultInjector

	mu        sync.Mutex
	defaultDB string
	stats     Stats
	latency   time.Duration
}

// Storage backends a Spec names.
const (
	BackendRel = "rel" // the relstore engine (the default)
	BackendCSV = "csv" // the flat-file csv store
)

// Spec describes one simulated product instance: what Open builds.
type Spec struct {
	Service string // the server's service name
	// Profile is the product's capability profile; one without a Name
	// stands for ProfileOracleLike.
	Profile Profile
	// Backend is BackendRel (the default) or BackendCSV.
	Backend string
	// Dir keeps the engine on disk there: a relstore data directory or
	// the csv store's table files, both reopened by the next Open. Empty
	// keeps the engine in memory.
	Dir string
	// PoolPages caps a rel engine's buffer pool (0 uses
	// storage.DefaultPoolPages).
	PoolPages int
	// Seed drives the server's probabilistic fault injection.
	Seed int64
	// DB is the database Open creates; empty creates none.
	DB string
	// Boot is the bootstrap SQL establishing DB's base state, committed
	// in one session. It runs only when the engine does not hold DB yet.
	Boot []string
}

// Capabilities returns the profile Open gives the server.
func (s Spec) Capabilities() Profile {
	if s.Profile.Name == "" {
		return ProfileOracleLike()
	}
	return s.Profile
}

// Open opens the engine s describes, in memory or reopened from s.Dir,
// and returns its server. DB is created and Boot committed only when
// the engine does not hold DB yet, so a server reopened on its Dir
// keeps its rows. A failing boot closes the engine.
func Open(s Spec) (*Server, error) {
	var be backend.Backend
	switch s.Backend {
	case "", BackendRel:
		st, err := relstore.Open(relstore.Options{Dir: s.Dir, PoolPages: s.PoolPages})
		if err != nil {
			return nil, fmt.Errorf("ldbms: open %s store: %w", s.Service, err)
		}
		be = relbackend.New(st)
	case BackendCSV:
		cs, err := csvstore.Open(s.Dir)
		if err != nil {
			return nil, fmt.Errorf("ldbms: open %s store: %w", s.Service, err)
		}
		be = cs
	default:
		return nil, fmt.Errorf("ldbms: unknown backend %q", s.Backend)
	}
	srv := NewServerOn(s.Service, s.Capabilities(), s.Seed, be)
	if s.DB == "" {
		return srv, nil
	}
	err := srv.CreateDatabase(s.DB)
	if errors.Is(err, schema.ErrDBExists) {
		return srv, nil
	}
	if err == nil {
		err = srv.boot(s.DB, s.Boot)
	}
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("ldbms: open %s: %w", s.Service, err)
	}
	return srv, nil
}

// boot runs and commits the bootstrap SQL in one session.
func (s *Server) boot(db string, sql []string) error {
	sess, err := s.OpenSession(db)
	if err != nil {
		return err
	}
	defer sess.Close()
	for _, q := range sql {
		if _, err := sess.Exec(q); err != nil {
			return fmt.Errorf("boot %q: %w", q, err)
		}
	}
	return sess.Commit()
}

// NewServerOn creates a server over a storage backend the caller
// opened. Databases that survived a restart are adopted: the first
// becomes the NOCONNECT default database. When the backend is durable,
// every commit checkpoints it.
func NewServerOn(name string, profile Profile, seed int64, be backend.Backend) *Server {
	s := &Server{
		name:    name,
		profile: profile.Clone(),
		be:      be,
		faults:  NewFaultInjector(seed),
	}
	if names := be.DatabaseNames(); len(names) > 0 {
		s.defaultDB = names[0]
	}
	return s
}

// checkpoint makes committed state durable on durable backends; it is a
// no-op for memory-backed ones.
func (s *Server) checkpoint() error {
	if !s.be.Durable() {
		return nil
	}
	return s.be.Checkpoint()
}

// Close checkpoints and releases the storage backend. Memory-backed
// engines have nothing to release.
func (s *Server) Close() error { return s.be.Close() }

// Name returns the service name.
func (s *Server) Name() string { return s.name }

// Profile returns the server's capability profile.
func (s *Server) Profile() Profile { return s.profile.Clone() }

// Backend exposes the storage engine behind the server.
func (s *Server) Backend() backend.Backend { return s.be }

// Faults exposes the fault injector.
func (s *Server) Faults() *FaultInjector { return s.faults }

// Stats returns a snapshot of operation counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// ResetStats zeroes the counters.
func (s *Server) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats = Stats{}
}

// CreateDatabase creates a database on the server. On NOCONNECT servers
// only the first database — the default one — may be created.
func (s *Server) CreateDatabase(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.profile.MultiDatabase && s.defaultDB != "" && s.defaultDB != name {
		return fmt.Errorf("%w (default %q)", ErrNoConnect, s.defaultDB)
	}
	if err := s.be.CreateDatabase(name); err != nil {
		return err
	}
	if s.defaultDB == "" {
		s.defaultDB = name
	}
	return nil
}

// DefaultDatabase returns the NOCONNECT default database name.
func (s *Server) DefaultDatabase() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.defaultDB
}

// Databases lists the databases hosted by the server.
func (s *Server) Databases() []string { return s.be.DatabaseNames() }

// OpenSession connects to a database. On NOCONNECT servers db may be
// empty or must equal the default database.
func (s *Server) OpenSession(db string) (*Session, error) {
	s.mu.Lock()
	defaultDB := s.defaultDB
	multi := s.profile.MultiDatabase
	s.mu.Unlock()
	if !multi {
		if db == "" {
			db = defaultDB
		}
		if db != defaultDB {
			return nil, fmt.Errorf("%w: cannot connect to %q (default %q)", ErrNoConnect, db, defaultDB)
		}
	}
	if !s.be.HasDatabase(db) {
		return nil, fmt.Errorf("%w: %s", schema.ErrNoDatabase, db)
	}
	return &Session{srv: s, db: db}, nil
}

func (s *Server) bump(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// SetLatency configures a simulated per-operation service latency, the
// stand-in for a remote site's network and service time. Zero disables
// it.
func (s *Server) SetLatency(d time.Duration) {
	s.mu.Lock()
	s.latency = d
	s.mu.Unlock()
}

// simulateLatency sleeps the configured per-operation latency.
func (s *Server) simulateLatency() {
	s.mu.Lock()
	d := s.latency
	s.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}
