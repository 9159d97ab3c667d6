package csvstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"msql/internal/backend"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
	"msql/internal/storage"
)

// Tx is one copy-on-write transaction. Reads see the committed images
// plus this transaction's own staged writes; Commit swaps staged table
// images into the store (and rewrites their CSV files) under the store
// lock, last writer wins. There is no prepare support and no locking —
// the honesty of COMMITMODE COMMIT.
//
// Tx is also the sqlengine.Storage the SQL executor runs over: a cursor
// position is the row's index in the table image, a delete leaves a nil
// tombstone there so later positions do not shift, and Commit squeezes
// the tombstones out before publishing. Tables are not
// sqlengine.KeyProbers (there is no index) and views are unsupported.
type Tx struct {
	s *Store
	// staged maps db -> table -> staged image; a nil image is a staged
	// DROP TABLE.
	staged map[string]map[string]*table
	done   bool
}

// Begin implements backend.Backend.
func (s *Store) Begin() backend.Tx {
	return &Tx{s: s, staged: make(map[string]map[string]*table)}
}

// read returns the table image this transaction sees.
func (t *Tx) read(db, name string) (*table, error) {
	if m, ok := t.staged[db]; ok {
		if img, ok := m[name]; ok {
			if img == nil {
				return nil, fmt.Errorf("%w: %s.%s", schema.ErrNoTable, db, name)
			}
			return img, nil
		}
	}
	return t.s.lookup(db, name)
}

// write returns a mutable staged copy of the table, staging it on first
// touch.
func (t *Tx) write(db, name string) (*table, error) {
	if m, ok := t.staged[db]; ok {
		if img, ok := m[name]; ok {
			if img == nil {
				return nil, fmt.Errorf("%w: %s.%s", schema.ErrNoTable, db, name)
			}
			return img, nil
		}
	}
	committed, err := t.s.lookup(db, name)
	if err != nil {
		return nil, err
	}
	img := committed.clone()
	t.stage(db, name, img)
	return img, nil
}

func (t *Tx) stage(db, name string, img *table) {
	m, ok := t.staged[db]
	if !ok {
		m = make(map[string]*table)
		t.staged[db] = m
	}
	m[name] = img
}

var errTxDone = errors.New("csvstore: transaction already finished")

// Exec implements backend.Tx by running the SQL executor over the
// transaction.
func (t *Tx) Exec(db, sql string, stmt sqlparser.Statement) (*sqlengine.Result, error) {
	if t.done {
		return nil, errTxDone
	}
	return sqlengine.Execute(t, db, stmt)
}

// Load implements backend.Tx.
func (t *Tx) Load(db, table string, rows [][]sqlval.Value) (int, error) {
	if t.done {
		return 0, errTxDone
	}
	return sqlengine.Load(t, db, table, rows)
}

// Describe implements backend.Tx.
func (t *Tx) Describe(db, name string) ([]schema.Column, error) {
	return sqlengine.DescribeTable(t, db, name)
}

// ---- sqlengine.Storage ----

// TableForRead implements sqlengine.Storage.
func (t *Tx) TableForRead(db, name string) (sqlengine.Table, error) {
	img, err := t.read(db, name)
	if err != nil {
		return nil, err
	}
	return img, nil
}

// TableColumns implements sqlengine.Storage.
func (t *Tx) TableColumns(db, name string) ([]schema.Column, error) {
	img, err := t.read(db, name)
	if err != nil {
		return nil, err
	}
	return img.cols, nil
}

// TableForWrite implements sqlengine.Storage, staging a private copy of
// the table on first touch.
func (t *Tx) TableForWrite(db, name string) (sqlengine.Table, error) {
	img, err := t.write(db, name)
	if err != nil {
		return nil, err
	}
	return img, nil
}

// Insert implements sqlengine.Storage. The executor has already coerced
// the values to the column kinds; a flat file enforces nothing more —
// no widths, no keys.
func (t *Tx) Insert(db, name string, row schema.Row) error {
	img, err := t.write(db, name)
	if err != nil {
		return err
	}
	img.rows = append(img.rows, row)
	return nil
}

// writeAt is write plus the check that pos addresses a live row.
func (t *Tx) writeAt(db, name string, pos int) (*table, error) {
	img, err := t.write(db, name)
	if err != nil {
		return nil, err
	}
	if pos < 0 || pos >= len(img.rows) || img.rows[pos] == nil {
		return nil, fmt.Errorf("csvstore: no row at position %d in %s.%s", pos, db, name)
	}
	return img, nil
}

// Update implements sqlengine.Storage: the row at pos is replaced, never
// modified in place, because unstaged copies share row storage.
func (t *Tx) Update(db, name string, pos int, row schema.Row) error {
	img, err := t.writeAt(db, name, pos)
	if err != nil {
		return err
	}
	img.rows[pos] = row
	return nil
}

// Delete implements sqlengine.Storage by leaving a tombstone at pos.
func (t *Tx) Delete(db, name string, pos int) error {
	img, err := t.writeAt(db, name, pos)
	if err != nil {
		return err
	}
	img.rows[pos] = nil
	return nil
}

// CreateTable implements sqlengine.Storage.
func (t *Tx) CreateTable(db, name string, cols []schema.Column) error {
	_, err := t.read(db, name)
	if err == nil {
		return fmt.Errorf("%w: %s.%s", schema.ErrTableExists, db, name)
	}
	if !errors.Is(err, schema.ErrNoTable) {
		return err // no such database
	}
	t.stage(db, name, &table{cols: append([]schema.Column(nil), cols...)})
	return nil
}

// DropTable implements sqlengine.Storage.
func (t *Tx) DropTable(db, name string) error {
	if _, err := t.read(db, name); err != nil {
		return err
	}
	t.stage(db, name, nil)
	return nil
}

// The engine keeps no views and creates databases only through
// Store.CreateDatabase (a directory, outside any transaction).

// ViewDefinition implements sqlengine.Storage.
func (t *Tx) ViewDefinition(db, name string) (string, error) {
	return "", fmt.Errorf("%w: %s.%s", schema.ErrNoView, db, name)
}

// CreateView implements sqlengine.Storage.
func (t *Tx) CreateView(db, name, definition string) error {
	return fmt.Errorf("%w: CREATE VIEW", ErrUnsupported)
}

// DropView implements sqlengine.Storage.
func (t *Tx) DropView(db, name string) error {
	return fmt.Errorf("%w: DROP VIEW", ErrUnsupported)
}

// CreateDatabase implements sqlengine.Storage.
func (t *Tx) CreateDatabase(name string) error {
	return fmt.Errorf("%w: CREATE DATABASE", ErrUnsupported)
}

// DropDatabase implements sqlengine.Storage.
func (t *Tx) DropDatabase(name string) error {
	return fmt.Errorf("%w: DROP DATABASE", ErrUnsupported)
}

// Columns implements sqlengine.Table.
func (t *table) Columns() []schema.Column { return t.cols }

// Err implements sqlengine.Table; a table image is memory and cannot
// fault.
func (t *table) Err() error { return nil }

// Scan implements sqlengine.Table.
func (t *table) Scan(*storage.PageCounters) sqlengine.Cursor { return &cursor{t: t} }

// cursor walks a table image, skipping tombstones. It re-reads the image
// on every step, so rows the statement appends behind it are visited and
// positions it has handed out stay valid.
type cursor struct {
	t   *table
	pos int
}

func (c *cursor) Next() (int, schema.Row, bool) {
	for c.pos < len(c.t.rows) {
		i := c.pos
		c.pos++
		if row := c.t.rows[i]; row != nil {
			return i, row, true
		}
	}
	return 0, nil, false
}

func (c *cursor) Reset() { c.pos = 0 }

// Prepare implements backend.Tx: the engine cannot hold a
// prepared-to-commit state. A correctly incorporated csvstore site
// (COMMITMODE COMMIT) never receives this call; the error is the
// backstop for misdeclared profiles.
func (t *Tx) Prepare() error { return ErrNoPrepare }

// Commit publishes the staged table images and rewrites their files.
func (t *Tx) Commit() error {
	if t.done {
		return nil
	}
	t.done = true
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	for db, m := range t.staged {
		d, ok := s.dbs[db]
		if !ok {
			return fmt.Errorf("%w: %s", schema.ErrNoDatabase, db)
		}
		for name, img := range m {
			if img == nil {
				delete(d.tables, name)
			} else {
				img.compact()
				d.tables[name] = img
			}
			if s.dir == "" {
				continue
			}
			path := filepath.Join(s.dir, db, name+".csv")
			if img == nil {
				if err := removeFile(path); err != nil {
					return err
				}
			} else if err := writeTable(path, img); err != nil {
				return err
			}
		}
	}
	return nil
}

// Rollback discards the staged writes.
func (t *Tx) Rollback() error {
	t.done = true
	t.staged = nil
	return nil
}

// SetLockTimeout implements backend.Tx; the engine takes no locks.
func (t *Tx) SetLockTimeout(time.Duration) {}
