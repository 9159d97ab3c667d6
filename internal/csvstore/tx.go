package csvstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"msql/internal/backend"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// Tx is one copy-on-write transaction. Reads see the committed images
// plus this transaction's own staged writes; Commit rewrites the touched
// tables' CSV files, encoding only the rows the transaction inserted or
// replaced, then swaps the staged images into the store, last writer
// wins. There is no prepare support and no row locking — the honesty of
// COMMITMODE COMMIT.
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
	// st is what statements run over: the Tx itself under the
	// session's temporary tables.
	st sqlengine.Overlay
}

// Begin implements backend.Backend.
func (s *Store) Begin() backend.Tx {
	t := &Tx{s: s, staged: make(map[string]map[string]*table)}
	t.st.Storage = t
	return t
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
	return sqlengine.Execute(&t.st, db, stmt)
}

// Load implements backend.Tx.
func (t *Tx) Load(db, table string, rows [][]sqlval.Value) (int, error) {
	if t.done {
		return 0, errTxDone
	}
	return sqlengine.Load(&t.st, db, table, rows)
}

// UseTemps implements backend.Tx.
func (t *Tx) UseTemps(ts *sqlengine.Temps) { t.st.Temps = ts }

// Describe implements backend.Tx.
func (t *Tx) Describe(db, name string) (schema.Table, error) {
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

// TableInfo implements sqlengine.Storage. The count is the image's
// length: committed images hold no tombstones and are never written
// again, only replaced.
func (t *Tx) TableInfo(db, name string) (schema.Table, error) {
	img, err := t.read(db, name)
	if err != nil {
		return schema.Table{}, err
	}
	return schema.Table{Columns: img.Cols, Rows: int64(len(img.Rows))}, nil
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
	img.insert(row)
	return nil
}

// Update implements sqlengine.Storage: the row at pos is replaced, never
// modified in place, because unstaged copies share row storage.
func (t *Tx) Update(db, name string, pos int, row schema.Row) error {
	img, err := t.write(db, name)
	if err != nil {
		return err
	}
	return img.Set(pos, row)
}

// Delete implements sqlengine.Storage by leaving a tombstone at pos.
func (t *Tx) Delete(db, name string, pos int) error {
	return t.Update(db, name, pos, nil)
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
	t.stage(db, name, newTable(append([]schema.Column(nil), cols...)))
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

// Prepare implements backend.Tx: the engine cannot hold a
// prepared-to-commit state. A correctly incorporated csvstore site
// (COMMITMODE COMMIT) never receives this call; the error is the
// backstop for misdeclared profiles.
func (t *Tx) Prepare() error { return ErrNoPrepare }

// Commit publishes the staged table images. A file-backed store first
// writes each touched table's file (wal.WriteFileAtomic: tmp file,
// fsync, rename, directory fsync), holding the locks of those files,
// taken in path order, until the images are swapped in under the store
// lock. So a reader never sees an image whose file is not written, the
// file order is the publish order (last writer wins on disk as in
// memory), and the store lock is held for the swap alone. If a write
// fails, the images whose files were written are still published.
func (t *Tx) Commit() error {
	if t.done {
		return nil
	}
	t.done = true
	s := t.s
	type change struct {
		db, name, path string
		img            *table // nil: DROP TABLE
	}
	var cs []change
	for db, m := range t.staged {
		for name, img := range m {
			if img != nil {
				img.compact()
			}
			cs = append(cs, change{db: db, name: name, path: filepath.Join(s.dir, db, name+".csv"), img: img})
		}
	}
	var err error
	if s.dir != "" {
		sort.Slice(cs, func(i, j int) bool { return cs[i].path < cs[j].path })
		for _, c := range cs {
			l := s.fileLock(c.path)
			l.Lock()
			defer l.Unlock()
		}
		for i, c := range cs {
			if c.img == nil {
				err = removeFile(c.path)
			} else {
				err = writeTable(c.path, c.img)
			}
			if err != nil {
				cs = cs[:i]
				break
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range cs {
		d, ok := s.dbs[c.db]
		if !ok {
			return fmt.Errorf("%w: %s", schema.ErrNoDatabase, c.db)
		}
		if c.img == nil {
			delete(d.tables, c.name)
		} else {
			d.tables[c.name] = c.img
		}
	}
	return err
}

// Rollback discards the staged writes.
func (t *Tx) Rollback() error {
	t.done = true
	t.staged = nil
	return nil
}

// SetLockTimeout implements backend.Tx; the engine takes no locks.
func (t *Tx) SetLockTimeout(time.Duration) {}
