// Package lam implements the Local Access Managers of the paper's
// architecture (Figure 1): the components that give the DOL engine
// transparent access to heterogeneous local DBMSs. A LAM exposes the same
// Client/Session interface over two transports — direct in-process calls
// and gob-over-TCP — so evaluation plans run identically against local
// and remote services.
//
// Every operation takes a context.Context: the remote transport turns the
// context deadline (capped by the dial options' per-call timeout) into
// net.Conn deadlines, so a partitioned or black-holed LAM fails the call
// within a bounded time instead of hanging the evaluation plan.
package lam

import (
	"context"
	"fmt"

	"msql/internal/ldbms"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
	"msql/internal/wire"
)

// Session is one open connection to a database behind a LAM, carrying an
// implicit transaction driven by the evaluation plan.
type Session interface {
	// Exec runs one SQL statement on the local database.
	Exec(ctx context.Context, sql string) (*sqlengine.Result, error)
	// Load inserts already-typed rows into a table of the local database,
	// inside the open transaction, and returns how many went in — an
	// INSERT ... VALUES of those rows without the SQL text. Like Exec it is
	// data plane: never retried.
	Load(ctx context.Context, table string, rows [][]sqlval.Value) (int, error)
	// Prepare enters the prepared-to-commit state (2PC servers only).
	Prepare(ctx context.Context) error
	// Commit commits the open transaction.
	Commit(ctx context.Context) error
	// Rollback aborts the open transaction.
	Rollback(ctx context.Context) error
	// State reports the observable session state.
	State(ctx context.Context) (ldbms.SessionState, error)
	// Database names the connected database.
	Database() string
	// Close releases the session, rolling back uncommitted work.
	Close() error
}

// Client is the access point for one incorporated service.
type Client interface {
	// ServiceName returns the service's name in the federation.
	ServiceName() string
	// Profile reports the service's commit/connect capabilities.
	Profile(ctx context.Context) (ldbms.Profile, error)
	// Open starts a session on a database.
	Open(ctx context.Context, db string) (Session, error)
	// Describe reports the schema of a table or view and the table's live
	// row count (0 = unknown), for IMPORT.
	Describe(ctx context.Context, db, name string) (schema.Table, error)
	// ListTables lists the public tables of a database.
	ListTables(ctx context.Context, db string) ([]string, error)
	// ListViews lists the views of a database.
	ListViews(ctx context.Context, db string) ([]string, error)
	// Resolve re-binds a prepared session (wire.ReqAttach), delivers the
	// coordinator's decision and returns the terminal state; a session that
	// already reached an outcome answers with the recorded one. A LAM with
	// no record of the session answers wire.ErrNoSession — under presumed
	// abort a definite answer, not a failure to retry. One attempt:
	// callers pace retries.
	Resolve(ctx context.Context, sessionID int64, commit bool) (ldbms.SessionState, error)
	// InDoubt lists the prepared sessions no live connection owns — the
	// participant's in-doubt inventory a recovering coordinator matches
	// against its journal.
	InDoubt(ctx context.Context) ([]wire.InDoubtSession, error)
	// Forget is the coordinator's end-of-multitransaction acknowledgment:
	// the outcome is durable on the coordinator's side, so the participant
	// may drop the session's tombstone and compact it out of its journal.
	// Forgetting an unknown session is a no-op.
	Forget(ctx context.Context, sessionID int64) error
	// Close releases the client.
	Close() error
}

// Recoverable is implemented by sessions whose prepared transaction can be
// driven to an outcome after a lost connection: RecoveryInfo names where a
// recovering coordinator reconnects and which server-side session to
// resolve (the in-doubt protocol of DESIGN.md §7).
type Recoverable interface {
	RecoveryInfo() (addr string, sessionID int64)
}

// Local is the in-process transport: a Client wired directly to an
// ldbms.Server in the same address space.
type Local struct {
	srv *ldbms.Server
}

// NewLocal wraps a server as an in-process LAM client.
func NewLocal(srv *ldbms.Server) *Local { return &Local{srv: srv} }

// ServiceName implements Client.
func (l *Local) ServiceName() string { return l.srv.Name() }

// Profile implements Client.
func (l *Local) Profile(ctx context.Context) (ldbms.Profile, error) {
	if err := ctx.Err(); err != nil {
		return ldbms.Profile{}, err
	}
	return l.srv.Profile(), nil
}

// Open implements Client.
func (l *Local) Open(ctx context.Context, db string) (Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := l.srv.OpenSession(db)
	if err != nil {
		return nil, err
	}
	return &localSession{sess: s}, nil
}

// Describe implements Client.
func (l *Local) Describe(ctx context.Context, db, name string) (schema.Table, error) {
	if err := ctx.Err(); err != nil {
		return schema.Table{}, err
	}
	s, err := l.srv.OpenSession(db)
	if err != nil {
		return schema.Table{}, err
	}
	defer s.Close()
	return s.Describe(name)
}

// ListTables implements Client.
func (l *Local) ListTables(ctx context.Context, db string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := l.srv.OpenSession(db)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.ListTables()
}

// ListViews implements Client.
func (l *Local) ListViews(ctx context.Context, db string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := l.srv.OpenSession(db)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	return s.ListViews()
}

// Resolve implements Client. An in-process session dies with its
// coordinator, so the server never holds one in doubt.
func (l *Local) Resolve(ctx context.Context, sessionID int64, commit bool) (ldbms.SessionState, error) {
	return 0, fmt.Errorf("%w: %d", wire.ErrNoSession, sessionID)
}

// InDoubt implements Client: nothing is ever in doubt in process.
func (l *Local) InDoubt(ctx context.Context) ([]wire.InDoubtSession, error) { return nil, nil }

// Forget implements Client: there is no tombstone to drop.
func (l *Local) Forget(ctx context.Context, sessionID int64) error { return nil }

// Close implements Client.
func (l *Local) Close() error { return nil }

type localSession struct {
	sess *ldbms.Session
}

func (s *localSession) Exec(ctx context.Context, sql string) (*sqlengine.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.sess.Exec(sql)
}

func (s *localSession) Load(ctx context.Context, table string, rows [][]sqlval.Value) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.sess.Load(table, rows)
}

func (s *localSession) Prepare(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.sess.Prepare()
}

func (s *localSession) Commit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.sess.Commit()
}

func (s *localSession) Rollback(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.sess.Rollback()
}

func (s *localSession) State(ctx context.Context) (ldbms.SessionState, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return s.sess.State(), nil
}

func (s *localSession) Database() string { return s.sess.Database() }

func (s *localSession) Close() error {
	s.sess.Close()
	return nil
}
