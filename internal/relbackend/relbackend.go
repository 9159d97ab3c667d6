// Package relbackend adapts relstore to the two seams above it: the
// executor's storage-cursor seam (sqlengine.Storage, see Storage) and
// the session layer's backend.Backend. It is the full-capability engine
// of the federation: slotted heap pages with a buffer pool underneath,
// strict 2PL with undo-based rollback, primary-key indexes the executor
// can probe, views, and a real prepared-to-commit state — the stand-in
// for the paper's Oracle/Ingres/Sybase products whose COMMITMODE
// NOCOMMIT profiles expose a user-controlled 2PC interface.
//
// The adapters stay even though relstore already speaks the seams'
// schema vocabulary: relstore.Tx.TableForRead returns *relstore.Table,
// and Go has no covariant return types to let that satisfy a method
// returning sqlengine.Table; and the benchmark builds its sites with New.
package relbackend

import (
	"time"

	"msql/internal/backend"
	"msql/internal/relstore"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
	"msql/internal/storage"
)

// Backend wraps a relstore.Store (memory- or disk-backed).
type Backend struct {
	store *relstore.Store
}

// New adapts an existing store — typically relstore.NewStore() for
// memory or relstore.Open(Options{Dir: ...}) for disk persistence.
func New(store *relstore.Store) *Backend { return &Backend{store: store} }

// CreateDatabase implements backend.Backend.
func (b *Backend) CreateDatabase(name string) error { return b.store.CreateDatabase(name) }

// DatabaseNames implements backend.Backend.
func (b *Backend) DatabaseNames() []string { return b.store.DatabaseNames() }

// HasDatabase implements backend.Backend.
func (b *Backend) HasDatabase(name string) bool {
	_, err := b.store.Database(name)
	return err == nil
}

// ListTables implements backend.Backend.
func (b *Backend) ListTables(db string) ([]string, error) {
	d, err := b.store.Database(db)
	if err != nil {
		return nil, err
	}
	return d.TableNames(), nil
}

// ListViews implements backend.Backend.
func (b *Backend) ListViews(db string) ([]string, error) {
	d, err := b.store.Database(db)
	if err != nil {
		return nil, err
	}
	return d.ViewNames(), nil
}

// Begin implements backend.Backend.
func (b *Backend) Begin() backend.Tx {
	t := &Tx{tx: b.store.Begin()}
	t.st.Storage = Storage(t.tx)
	return t
}

// Durable reports whether the store writes through to a data directory.
func (b *Backend) Durable() bool { return b.store.Dir() != "" }

// Checkpoint implements backend.Backend.
func (b *Backend) Checkpoint() error {
	if !b.Durable() {
		return nil
	}
	return b.store.Checkpoint()
}

// Close implements backend.Backend.
func (b *Backend) Close() error {
	if !b.Durable() {
		return nil
	}
	return b.store.Close()
}

// Tx adapts relstore.Tx + sqlengine to backend.Tx. Statements run over
// st: the transaction's Storage under the session's temporary tables.
type Tx struct {
	tx *relstore.Tx
	st sqlengine.Overlay
}

// Exec implements backend.Tx by running the SQL executor over the
// transaction.
func (t *Tx) Exec(db, sql string, stmt sqlparser.Statement) (*sqlengine.Result, error) {
	return sqlengine.Execute(&t.st, db, stmt)
}

// Load implements backend.Tx.
func (t *Tx) Load(db, table string, rows [][]sqlval.Value) (int, error) {
	return sqlengine.Load(&t.st, db, table, rows)
}

// UseTemps implements backend.Tx.
func (t *Tx) UseTemps(ts *sqlengine.Temps) { t.st.Temps = ts }

// Describe implements backend.Tx.
func (t *Tx) Describe(db, name string) (schema.Table, error) {
	return sqlengine.DescribeTable(t.st.Storage, db, name)
}

// Prepare implements backend.Tx.
func (t *Tx) Prepare() error { return t.tx.Prepare() }

// Commit implements backend.Tx.
func (t *Tx) Commit() error { return t.tx.Commit() }

// Rollback implements backend.Tx.
func (t *Tx) Rollback() error { return t.tx.Rollback() }

// SetLockTimeout implements backend.Tx.
func (t *Tx) SetLockTimeout(d time.Duration) { t.tx.LockTimeout = d }

// Storage presents a relstore transaction to the SQL executor. Writes,
// DDL, locking and undo are relstore.Tx's own methods, promoted as they
// are; only table and view resolution need wrapping. Cursor positions
// are relstore's stable row indexes: the table's X lock keeps them fixed
// until the transaction finishes.
func Storage(tx *relstore.Tx) sqlengine.Storage { return txStorage{tx} }

type txStorage struct{ *relstore.Tx }

func (s txStorage) TableForRead(db, name string) (sqlengine.Table, error) {
	t, err := s.Tx.TableForRead(db, name)
	if err != nil {
		return nil, err
	}
	return table{t}, nil
}

func (s txStorage) TableForWrite(db, name string) (sqlengine.Table, error) {
	t, err := s.Tx.TableForWrite(db, name)
	if err != nil {
		return nil, err
	}
	return table{t}, nil
}

func (s txStorage) TableInfo(db, name string) (schema.Table, error) {
	d, err := s.StoreDatabase(db)
	if err != nil {
		return schema.Table{}, err
	}
	t, err := d.Table(name)
	if err != nil {
		return schema.Table{}, err
	}
	return schema.Table{Columns: t.Columns, Rows: int64(t.RowCount())}, nil
}

func (s txStorage) ViewDefinition(db, name string) (string, error) {
	d, err := s.StoreDatabase(db)
	if err != nil {
		return "", err
	}
	v, err := d.View(name)
	if err != nil {
		return "", err
	}
	return v.Definition, nil
}

// table presents a locked relstore.Table as sqlengine.Table and
// sqlengine.KeyProber.
type table struct{ t *relstore.Table }

func (t table) Columns() []schema.Column { return t.t.Columns }
func (t table) Err() error               { return t.t.Err() }
func (t table) KeyColumns() []int        { return t.t.KeyColumns() }

func (t table) Scan(pc *storage.PageCounters, sargs []storage.Sarg) sqlengine.Cursor {
	return t.t.IterCounted(pc, sargs)
}

func (t table) LookupKey(vals []sqlval.Value) (int, bool) { return t.t.LookupKey(vals) }

func (t table) RowAt(pos int, pc *storage.PageCounters) schema.Row {
	return t.t.RowAtCounted(pos, pc)
}
