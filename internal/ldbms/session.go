package ldbms

import (
	"fmt"
	"sync"
	"time"

	"msql/internal/backend"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// SessionState is the observable transaction state of a session. Prepared
// is the visible prepared-to-commit state the paper's evaluation plans
// test with conditions like (T1=P).
type SessionState uint8

// Session states.
const (
	StateIdle SessionState = iota // no open transaction
	StateActive
	StatePrepared
	StateCommitted // last transaction committed
	StateAborted   // last transaction rolled back
)

func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateActive:
		return "active"
	case StatePrepared:
		return "prepared"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("SessionState(%d)", uint8(s))
	}
}

// Session is one connection to a server's database. Statements accumulate
// in an implicit transaction; the profile decides when the server commits
// on its own.
type Session struct {
	srv *Server
	db  string

	mu          sync.Mutex
	tx          backend.Tx
	state       SessionState
	lockTimeout time.Duration
	// redo holds the effects of the open transaction in execution order,
	// so a participant journal can re-materialize a prepared session on a
	// restarted server. Cleared whenever the transaction reaches an
	// outcome (commit, rollback, autocommit).
	redo []redoEntry
}

// redoEntry is one effect of the open transaction: the SQL text of a
// statement, or — when rows is set — a loaded batch, kept as the rows it
// arrived as and rendered to an INSERT only if Redo is asked for.
type redoEntry struct {
	sql   string
	table string
	rows  [][]sqlval.Value
}

// Database returns the connected database name.
func (s *Session) Database() string { return s.db }

// State returns the session's transaction state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// SetLockTimeout overrides the lock wait budget for subsequent
// transactions (tests use short timeouts to simulate deadlocks quickly).
func (s *Session) SetLockTimeout(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lockTimeout = d
}

func (s *Session) beginLocked() backend.Tx {
	tx := s.srv.be.Begin()
	if s.lockTimeout > 0 {
		tx.SetLockTimeout(s.lockTimeout)
	}
	s.tx = tx
	s.state = StateActive
	s.redo = nil
	return tx
}

// Redo returns the effect-bearing SQL statements of the open transaction
// in execution order — what a restarted server must re-execute to bring
// a prepared transaction back to its voted state. Empty outside an open
// transaction. Loaded batches are rendered here, as INSERT ... VALUES of
// their rows, and nowhere else: a transaction that never prepares under
// a participant journal never pays for the text.
func (s *Session) Redo() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.redo))
	for i, e := range s.redo {
		out[i] = e.sql
		if e.rows != nil {
			ins := &sqlparser.InsertStmt{Table: sqlparser.Name(e.table), Rows: make([][]sqlparser.Expr, len(e.rows))}
			for ri, row := range e.rows {
				exprs := make([]sqlparser.Expr, len(row))
				for vi, v := range row {
					exprs[vi] = &sqlparser.Literal{Val: v}
				}
				ins.Rows[ri] = exprs
			}
			out[i] = sqlparser.Deparse(ins)
		}
	}
	return out
}

// Exec parses and executes one SQL statement. Errors abort the open
// transaction, mirroring an LDBMS that aborts its local subquery on
// failure. BEGIN/COMMIT/ROLLBACK statements map onto the session's
// transaction control.
func (s *Session) Exec(sql string) (*sqlengine.Result, error) {
	stmt, err := sqlparser.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *sqlparser.BeginStmt:
		s.mu.Lock()
		if s.tx == nil {
			s.beginLocked()
		}
		s.mu.Unlock()
		return &sqlengine.Result{}, nil
	case *sqlparser.CommitStmt:
		return &sqlengine.Result{}, s.Commit()
	case *sqlparser.RollbackStmt:
		return &sqlengine.Result{}, s.Rollback()
	}
	return s.execStmt(sql, stmt)
}

func (s *Session) execStmt(sql string, stmt sqlparser.Statement) (*sqlengine.Result, error) {
	class := classOf(stmt)
	redo := redoEntry{sql: sql}
	if ex, ok := stmt.(*sqlparser.ExplainStmt); ok && class != ClassSelect {
		// An executed EXPLAIN ANALYZE of a write: replay must redo the
		// write, not profile it again.
		redo.sql = sqlparser.Deparse(ex.Target)
	}
	var res *sqlengine.Result
	err := s.apply(class, redo, func(tx backend.Tx) (err error) {
		s.srv.bump(func(st *Stats) { st.Execs++ })
		res, err = tx.Exec(s.db, sql, stmt)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Load inserts already-typed rows into a table of the connected database
// and returns how many went in. It is an INSERT ... VALUES of those rows
// in everything but the text: the same gating as a statement, the
// profile's autocommit rule for the insert class, and the backend's one
// insert semantics (arity, coercion to the declared kinds, widths, keys).
func (s *Session) Load(table string, rows [][]sqlval.Value) (int, error) {
	if len(rows) == 0 {
		return 0, nil // no effect, so no transaction and no redo entry
	}
	n := 0
	err := s.apply(ClassInsert, redoEntry{table: table, rows: rows}, func(tx backend.Tx) (err error) {
		n, err = tx.Load(s.db, table, rows)
		s.srv.bump(func(st *Stats) { st.Loads++; st.LoadedRows += int64(n) })
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// apply runs one effect — a statement or a loaded batch — under the
// session's rules: refused while prepared, subject to FaultExec, begin on
// demand, abort the transaction on error, then either the silent commit
// the profile prescribes for the class or a redo entry.
func (s *Session) apply(class StmtClass, redo redoEntry, op func(tx backend.Tx) error) error {
	s.srv.simulateLatency()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StatePrepared {
		return fmt.Errorf("%w: exec while prepared", ErrSessionState)
	}
	if err := s.srv.faults.Check(FaultExec, s.db); err != nil {
		s.abortLocked()
		return err
	}
	if s.tx == nil {
		s.beginLocked()
	}
	if err := op(s.tx); err != nil {
		s.abortLocked()
		return err
	}
	if class == ClassSelect {
		return nil
	}
	if !s.srv.profile.AutoCommits(class) {
		s.redo = append(s.redo, redo)
		return nil
	}
	// The server commits on its own: the effect itself and every
	// previously issued uncommitted one become durable.
	if err := s.tx.Commit(); err != nil {
		s.abortLocked()
		return err
	}
	s.tx = nil
	s.state = StateCommitted
	s.redo = nil
	s.srv.bump(func(st *Stats) { st.Commits++; st.SilentCommits++ })
	return s.srv.checkpoint()
}

// Prepare moves the open transaction to the prepared-to-commit state.
// Servers without a 2PC interface refuse.
func (s *Session) Prepare() error {
	s.srv.simulateLatency()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.srv.profile.TwoPC {
		return fmt.Errorf("%w (%s)", ErrNoTwoPC, s.srv.profile.Name)
	}
	if err := s.srv.faults.Check(FaultPrepare, s.db); err != nil {
		s.abortLocked()
		return err
	}
	if s.tx == nil {
		// Nothing pending (e.g. everything was autocommitted): prepare an
		// empty transaction so the protocol can proceed uniformly.
		s.beginLocked()
	}
	if err := s.tx.Prepare(); err != nil {
		return err
	}
	s.state = StatePrepared
	s.srv.bump(func(st *Stats) { st.Prepares++ })
	return nil
}

// Commit commits the open transaction (from active or prepared state).
func (s *Session) Commit() error {
	s.srv.simulateLatency()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == nil {
		return nil // nothing pending; autocommit already made it durable
	}
	if err := s.srv.faults.Check(FaultCommit, s.db); err != nil {
		s.abortLocked()
		return err
	}
	if err := s.tx.Commit(); err != nil {
		return err
	}
	s.tx = nil
	s.state = StateCommitted
	s.redo = nil
	s.srv.bump(func(st *Stats) { st.Commits++ })
	return s.srv.checkpoint()
}

// Rollback aborts the open transaction.
func (s *Session) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == nil {
		s.state = StateAborted
		return nil
	}
	s.abortLocked()
	return nil
}

func (s *Session) abortLocked() {
	if s.tx != nil {
		_ = s.tx.Rollback()
		s.tx = nil
		s.srv.bump(func(st *Stats) { st.Rollbacks++ })
	}
	s.state = StateAborted
	s.redo = nil
}

// Close rolls back any open transaction.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		s.abortLocked()
	}
}

// Describe reports the schema of a table or view, for IMPORT.
func (s *Session) Describe(name string) ([]schema.Column, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx := s.tx
	temp := false
	if tx == nil {
		tx = s.srv.be.Begin()
		temp = true
	}
	cols, err := tx.Describe(s.db, name)
	if temp {
		_ = tx.Rollback()
	}
	return cols, err
}

// ListTables returns the table names of the connected database.
func (s *Session) ListTables() ([]string, error) {
	return s.srv.be.ListTables(s.db)
}

// ListViews returns the view names of the connected database.
func (s *Session) ListViews() ([]string, error) {
	return s.srv.be.ListViews(s.db)
}
