// Package csvstore is a flat-file storage engine: databases are
// directories, tables are CSV files with a typed header row, and the
// whole committed state of a table is rewritten when a transaction
// touching it commits.
//
// It exists to be *unlike* relstore. The paper's federation incorporates
// database products of very different sophistication, and its §3.3
// compensation semantics are motivated by products that cannot hold a
// prepared-to-commit state: csvstore is that product. It has no
// write-ahead log, no locks, no prepare support — Prepare always fails —
// and transactions are copy-on-write snapshots with last-writer-wins
// visibility. Behind ldbms.ProfileAutoCommitOnly (COMMITMODE COMMIT)
// every statement commits immediately, which is the only mode the
// engine is honest about.
//
// A commit costs what it changed. Each table image carries every row's
// encoded CSV line beside the row, shared with the images cloned from
// it; a commit encodes only the rows it inserted or replaced, then
// writes the header and all lines through wal.WriteFileAtomic (tmp file,
// fsync, rename, directory fsync). The file is written before the image
// is published, under a lock per table file taken in path order, so a
// reader never sees an image that is not yet durable, and commits to
// different tables do not wait on each other's fsyncs.
//
// The package is three things: the file format (this file), the
// copy-on-write transaction, and that transaction's implementation of
// sqlengine.Storage (both in tx.go). SQL semantics are not here: the one
// executor in internal/sqlengine runs over the table images exactly as
// it runs over relstore's heap pages. What a csv site cannot do is what
// its storage lacks — views (ErrUnsupported), key indexes (declared keys
// are recorded in the header but neither enforced nor probed), width
// checks, locks and prepare (ErrNoPrepare).
package csvstore

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
	"msql/internal/wal"
)

// Engine errors. Missing and already-existing objects are reported with
// the schema sentinels (ErrNoTable, ErrNoDatabase, ErrTableExists,
// ErrDBExists) so the wire protocol's error taxonomy, and everything the
// coordinator branches on, is backend-agnostic: this package does not
// link the relstore engine at all.
var (
	ErrNoPrepare   = errors.New("csvstore: backend cannot prepare")
	ErrUnsupported = errors.New("csvstore: unsupported by this backend")
)

// nullMark encodes SQL NULL in a CSV cell.
const nullMark = `\N`

// table is one table image. Committed images are immutable: writers
// stage copies and swap whole *table pointers at commit, so concurrent
// readers keep a consistent snapshot without locks. Rows are immutable
// too — a staged image replaces or tombstones (nil) a row, never edits
// it — so a copy shares them with its original. An image is the
// executor's RowTable, so the executor scans it directly.
//
// lines[i] is Rows[i]'s encoded CSV line, or "" until a commit writes
// it. A line is as immutable as its row and shared the same way; every
// change to a row clears its line.
type table struct {
	sqlengine.RowTable
	lines []string
}

type database struct {
	tables map[string]*table
}

// Store is one CSV engine instance. A non-empty dir makes it
// file-backed: every commit rewrites the touched tables' files.
type Store struct {
	dir string

	mu    sync.Mutex
	dbs   map[string]*database
	files map[string]*sync.Mutex // per table file; see Tx.Commit
}

// Open creates a store rooted at dir, loading any databases a previous
// process left there. An empty dir keeps the store memory-only.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, dbs: make(map[string]*database), files: make(map[string]*sync.Mutex)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		db := &database{tables: make(map[string]*table)}
		files, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, f := range files {
			if f.IsDir() || !strings.HasSuffix(f.Name(), ".csv") {
				continue
			}
			t, err := loadTable(filepath.Join(dir, e.Name(), f.Name()))
			if err != nil {
				return nil, fmt.Errorf("csvstore: load %s/%s: %w", e.Name(), f.Name(), err)
			}
			db.tables[strings.TrimSuffix(f.Name(), ".csv")] = t
		}
		s.dbs[e.Name()] = db
	}
	return s, nil
}

// Dir returns the data directory ("" for memory-only stores).
func (s *Store) Dir() string { return s.dir }

// CreateDatabase implements backend.Backend.
func (s *Store) CreateDatabase(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.dbs[name]; ok {
		return fmt.Errorf("%w: %s", schema.ErrDBExists, name)
	}
	if s.dir != "" {
		if err := os.MkdirAll(filepath.Join(s.dir, name), 0o755); err != nil {
			return err
		}
	}
	s.dbs[name] = &database{tables: make(map[string]*table)}
	return nil
}

// DropDatabase implements backend.Backend: the database's directory
// goes with it.
func (s *Store) DropDatabase(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.dbs[name]; !ok {
		return fmt.Errorf("%w: %s", schema.ErrNoDatabase, name)
	}
	delete(s.dbs, name)
	if s.dir == "" {
		return nil
	}
	return os.RemoveAll(filepath.Join(s.dir, name))
}

// DatabaseNames implements backend.Backend.
func (s *Store) DatabaseNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.dbs))
	for n := range s.dbs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HasDatabase implements backend.Backend.
func (s *Store) HasDatabase(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.dbs[name]
	return ok
}

// ListTables implements backend.Backend.
func (s *Store) ListTables(db string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.dbs[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", schema.ErrNoDatabase, db)
	}
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// ListViews implements backend.Backend; the engine has no views.
func (s *Store) ListViews(db string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.dbs[db]; !ok {
		return nil, fmt.Errorf("%w: %s", schema.ErrNoDatabase, db)
	}
	return nil, nil
}

// Durable implements backend.Backend. Commits write through to the CSV
// files themselves, so there is no separate checkpoint step.
func (s *Store) Durable() bool { return false }

// Checkpoint implements backend.Backend (write-through engine: no-op).
func (s *Store) Checkpoint() error { return nil }

// Close implements backend.Backend (nothing held open between commits).
func (s *Store) Close() error { return nil }

// lookup returns the committed image of db.table.
func (s *Store) lookup(db, name string) (*table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.dbs[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", schema.ErrNoDatabase, db)
	}
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", schema.ErrNoTable, db, name)
	}
	return t, nil
}

// fileLock returns the lock of one table file.
func (s *Store) fileLock(path string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.files[path]
	if l == nil {
		l = new(sync.Mutex)
		s.files[path] = l
	}
	return l
}

func newTable(cols []schema.Column) *table {
	return &table{RowTable: sqlengine.RowTable{Cols: cols}}
}

// clone copies a table image for copy-on-write staging; the copy shares
// the rows and their lines.
func (t *table) clone() *table {
	c := newTable(t.Cols)
	c.Rows = append([]schema.Row(nil), t.Rows...)
	c.lines = append([]string(nil), t.lines...)
	return c
}

// insert appends a row with no line yet.
func (t *table) insert(row schema.Row) {
	t.Rows = append(t.Rows, row)
	t.lines = append(t.lines, "")
}

// Set replaces the live row at pos, or tombstones it with nil, and
// clears its line.
func (t *table) Set(pos int, row schema.Row) error {
	if err := t.RowTable.Set(pos, row); err != nil {
		return err
	}
	t.lines[pos] = ""
	return nil
}

// compact squeezes the tombstones out of a staged image, and their
// lines with them.
func (t *table) compact() {
	n := 0
	for i, r := range t.Rows {
		if r != nil {
			t.Rows[n], t.lines[n] = r, t.lines[i]
			n++
		}
	}
	t.Rows, t.lines = t.Rows[:n], t.lines[:n]
}

// ---- CSV encoding ----

func encodeColumn(c schema.Column) string {
	typ := c.Type.String()
	if c.Type == sqlval.KindString && c.Width > 0 {
		typ = fmt.Sprintf("CHAR(%d)", c.Width)
	}
	if c.Key {
		return c.Name + ":" + typ + ":key"
	}
	return c.Name + ":" + typ
}

func decodeColumn(s string) (schema.Column, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 {
		return schema.Column{}, fmt.Errorf("csvstore: bad column header %q", s)
	}
	c := schema.Column{Name: parts[0]}
	typ := parts[1]
	if strings.HasPrefix(typ, "CHAR(") && strings.HasSuffix(typ, ")") {
		w, err := strconv.Atoi(typ[5 : len(typ)-1])
		if err != nil {
			return schema.Column{}, fmt.Errorf("csvstore: bad column header %q", s)
		}
		c.Type, c.Width = sqlval.KindString, w
	} else {
		switch typ {
		case "INTEGER":
			c.Type = sqlval.KindInt
		case "FLOAT":
			c.Type = sqlval.KindFloat
		case "CHAR":
			c.Type = sqlval.KindString
		case "BOOLEAN":
			c.Type = sqlval.KindBool
		default:
			return schema.Column{}, fmt.Errorf("csvstore: bad column type %q", typ)
		}
	}
	c.Key = len(parts) > 2 && parts[2] == "key"
	return c, nil
}

func encodeCell(v sqlval.Value) string {
	if v.IsNull() {
		return nullMark
	}
	return v.String()
}

func decodeCell(s string, kind sqlval.Kind) (sqlval.Value, error) {
	if s == nullMark {
		return sqlval.Null(), nil
	}
	switch kind {
	case sqlval.KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return sqlval.Value{}, err
		}
		return sqlval.Int(i), nil
	case sqlval.KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return sqlval.Value{}, err
		}
		return sqlval.Float(f), nil
	case sqlval.KindBool:
		return sqlval.Bool(s == "TRUE"), nil
	default:
		return sqlval.Str(s), nil
	}
}

func loadTable(path string) (*table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := csv.NewReader(f)
	r.FieldsPerRecord = -1
	records, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, errors.New("csvstore: missing header row")
	}
	t := newTable(nil)
	for _, h := range records[0] {
		c, err := decodeColumn(h)
		if err != nil {
			return nil, err
		}
		t.Cols = append(t.Cols, c)
	}
	for _, rec := range records[1:] {
		if len(rec) != len(t.Cols) {
			return nil, fmt.Errorf("csvstore: row has %d cells, want %d", len(rec), len(t.Cols))
		}
		row := make([]sqlval.Value, len(rec))
		for i, cell := range rec {
			v, err := decodeCell(cell, t.Cols[i].Type)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		t.insert(row)
	}
	return t, nil
}

// removeFile deletes a table file, tolerating its absence (the table
// may never have been committed to disk).
func removeFile(path string) error {
	err := os.Remove(path)
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// writeTable persists one table image: it encodes the rows that have no
// line yet, keeping their lines in the image, and replaces the file with
// the header and every line.
func writeTable(path string, t *table) error {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	cells := make([]string, len(t.Cols))
	size := 0
	for i, row := range t.Rows {
		if t.lines[i] == "" {
			for j, v := range row {
				cells[j] = encodeCell(v)
			}
			w.Write(cells)
			w.Flush()
			t.lines[i] = buf.String()
			buf.Reset()
		}
		size += len(t.lines[i])
	}
	for i, c := range t.Cols {
		cells[i] = encodeColumn(c)
	}
	w.Write(cells)
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	buf.Grow(size)
	for _, l := range t.lines {
		buf.WriteString(l)
	}
	return replaceFile(path, buf.Bytes())
}

// replaceFile is the one file write; tests wrap it to watch commits.
var replaceFile = wal.WriteFileAtomic
