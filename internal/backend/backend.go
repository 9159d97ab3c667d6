// Package backend defines the storage-engine seam behind a simulated
// LDBMS. The paper's federation incorporates *different* database
// products — the testbed ran Oracle, Ingres and Sybase — and the point
// of the capability profiles is that the multidatabase layer never sees
// past them. This package is the corresponding seam in code: an
// ldbms.Server executes statements against any Backend, and the two
// shipped implementations differ on purpose:
//
//   - internal/relbackend: the full transactional engine (relstore heap
//     pages + B-trees + 2PL + undo), able to hold a prepared-to-commit
//     state — the Oracle/Ingres/Sybase stand-in;
//   - internal/csvstore: a flat-file CSV engine with copy-on-write
//     statement transactions and no prepare support at all — the
//     COMMITMODE COMMIT product the paper's §3.3 compensation semantics
//     exist for.
//
// The interfaces are deliberately narrow: exactly what the session layer
// above needs to implement autocommit classes, 2PC gating, redo capture
// and IMPORT-time schema description. They speak internal/schema's
// vocabulary, so this package — like the executor and csvstore — does
// not link the relstore engine.
//
// This is the transaction-control seam, not the SQL one. Neither engine
// interprets SQL: both implement Tx.Exec as sqlengine.Execute (and
// Tx.Load as sqlengine.Load) over their adapter of the executor's
// storage-cursor seam (sqlengine.Storage), so statement semantics exist
// once and the engines differ only in what their storage can do —
// prepare, views, key indexes, locks, durability.
package backend

import (
	"time"

	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// Backend is one storage engine instance hosting named databases.
// Implementations must be safe for concurrent use by multiple sessions.
type Backend interface {
	// CreateDatabase creates a database, failing if it exists.
	CreateDatabase(name string) error
	// DropDatabase removes a database and everything it holds, outside
	// any transaction.
	DropDatabase(name string) error
	// DatabaseNames lists hosted databases in sorted order.
	DatabaseNames() []string
	// HasDatabase reports whether the database exists.
	HasDatabase(name string) bool
	// ListTables and ListViews enumerate a database's committed schema
	// for IMPORT.
	ListTables(db string) ([]string, error)
	ListViews(db string) ([]string, error)
	// Begin opens a new transaction.
	Begin() Tx
	// Durable reports whether committed state must be checkpointed to
	// survive a restart; the session layer checkpoints after each commit
	// on durable backends.
	Durable() bool
	// Checkpoint flushes committed state to stable storage (no-op when
	// not Durable).
	Checkpoint() error
	// Close releases the engine, checkpointing first when Durable.
	Close() error
}

// Tx is one transaction: statements execute inside it and become
// visible to other transactions only at Commit. A Tx is used by a
// single session goroutine at a time.
type Tx interface {
	// Exec runs one already-parsed statement. sql is the original text,
	// for decorators that log or time statements; the shipped engines
	// execute the AST.
	Exec(db, sql string, stmt sqlparser.Statement) (*sqlengine.Result, error)
	// Load inserts already-typed rows into a table and returns how many
	// went in: the executor's INSERT row builder (arity, coercion to the
	// declared kinds) followed by the storage insert, with no SQL text
	// anywhere — both engines implement it as sqlengine.Load over their
	// Storage adapter.
	Load(db, table string, rows [][]sqlval.Value) (int, error)
	// Describe reports the schema of a table or view and, for a table,
	// its live row count, read without a scan.
	Describe(db, name string) (schema.Table, error)
	// Prepare moves the transaction to the prepared-to-commit state.
	// Engines without a prepare interface return an error; the session
	// layer's capability profile normally refuses before this is
	// reached.
	Prepare() error
	Commit() error
	Rollback() error
	// SetLockTimeout bounds lock waits for engines that lock; others
	// ignore it.
	SetLockTimeout(d time.Duration)
	// UseTemps hands the transaction its session's temporary tables:
	// Exec and Load resolve them before the engine's tables
	// (sqlengine.Overlay), Describe never sees them. Without it CREATE
	// TEMPORARY TABLE fails with sqlengine.ErrNoTemps.
	UseTemps(ts *sqlengine.Temps)
}
