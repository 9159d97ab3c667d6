package ldbms

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"msql/internal/backend"
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

// NewServer creates a server with the given capability profile over a
// fresh in-memory relstore engine. seed drives probabilistic fault
// injection.
func NewServer(name string, profile Profile, seed int64) *Server {
	return NewServerWith(name, profile, seed, relstore.NewStore())
}

// NewServerWith creates a server over an existing store — typically one
// opened with relstore.Options{Dir: ...} for disk persistence. When the
// store is disk-backed, every commit checkpoints it, and databases that
// survived a restart are adopted: the first (alphabetically) becomes the
// NOCONNECT default database.
func NewServerWith(name string, profile Profile, seed int64, store *relstore.Store) *Server {
	return NewServerOn(name, profile, seed, relbackend.New(store))
}

// NewServerOn creates a server over an arbitrary storage backend — the
// seam heterogeneous-fleet topologies use to mix genuinely different
// engines (relstore, csvstore) behind the uniform profile surface.
// Databases that survived a restart are adopted: the first becomes the
// NOCONNECT default database.
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
