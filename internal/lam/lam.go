// Package lam implements the Local Access Managers of the paper's
// architecture (Figure 1): the components that give the DOL engine
// transparent access to heterogeneous local DBMSs. A LAM serves one
// local DBMS over the wire protocol (TCPServer, a per-connection handler
// on wire.Serve), and the DOL engine reaches it through the
// Client/Session interface (Remote, a pool of wire.Conns), whether the
// DBMS runs on another host or in the coordinator's own process on a
// loopback port: there is one access path, so the retry taxonomy,
// session piggy-backing and the in-doubt protocol run for every site.
//
// Every operation takes a context.Context: wire.Conn.Call turns the
// context deadline (capped by the dial options' per-call timeout) into
// net.Conn deadlines, so a partitioned or black-holed LAM fails the call
// within a bounded time instead of hanging the evaluation plan.
package lam

import (
	"context"

	"msql/internal/ldbms"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
	"msql/internal/wire"
)

// Session is one open connection to a database behind a LAM, carrying an
// implicit transaction driven by the evaluation plan.
type Session interface {
	Recoverable
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

// Recoverable names how a session's prepared transaction can be driven
// to an outcome after a lost connection: RecoveryInfo names where a
// recovering coordinator reconnects and which server-side session to
// resolve (the in-doubt protocol of DESIGN.md §7).
type Recoverable interface {
	RecoveryInfo() (addr string, sessionID int64)
}
