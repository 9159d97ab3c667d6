package sqlengine

import (
	"errors"
	"fmt"

	"msql/internal/schema"
	"msql/internal/sqlparser"
	"msql/internal/storage"
)

// ErrNoTemps is returned for CREATE TEMPORARY TABLE on a storage that
// carries no session's temporary tables.
var ErrNoTemps = errors.New("sqlengine: temporary tables need a session")

// RowTable is a table held as typed rows in memory, in insertion order.
// A deleted row leaves a nil tombstone, so the positions a cursor hands
// out stay valid whatever the statement writes. Rows are replaced, never
// edited in place. It ignores search arguments, which the Storage
// contract allows. csvstore keeps its table images as RowTables, and a
// session's temporary tables are RowTables.
type RowTable struct {
	Cols []schema.Column
	Rows []schema.Row
}

// Columns implements Table.
func (t *RowTable) Columns() []schema.Column { return t.Cols }

// Err implements Table: memory cannot fault.
func (t *RowTable) Err() error { return nil }

// Scan implements Table. It returns every live row and leaves the
// conjuncts to the executor's filters.
func (t *RowTable) Scan(*storage.PageCounters, []storage.Sarg) Cursor {
	return &rowCursor{t: t}
}

// Set replaces the live row at pos; a nil row deletes it.
func (t *RowTable) Set(pos int, row schema.Row) error {
	if pos < 0 || pos >= len(t.Rows) || t.Rows[pos] == nil {
		return fmt.Errorf("sqlengine: no row at position %d", pos)
	}
	t.Rows[pos] = row
	return nil
}

// rowCursor walks a RowTable, skipping tombstones. It re-reads the rows
// on every step, so rows the statement appends behind it are visited.
type rowCursor struct {
	t   *RowTable
	pos int
}

func (c *rowCursor) Next() (int, schema.Row, bool) {
	for c.pos < len(c.t.Rows) {
		i := c.pos
		c.pos++
		if row := c.t.Rows[i]; row != nil {
			return i, row, true
		}
	}
	return 0, nil, false
}

func (c *rowCursor) Reset() { c.pos = 0 }

// Temps is one session's temporary tables, created by CREATE TEMPORARY
// TABLE and dropped by DROP TABLE or with the session. They are held
// as RowTables: no file, no catalog entry, no buffer-pool frame, no
// lock, and no name any other session can see. They are not
// transactional: a rollback keeps them and their rows. The zero value
// is an empty set; a set is used by one session at a time.
type Temps struct {
	tables map[tempName]*RowTable
}

type tempName struct{ db, table string }

// Holds reports whether name, resolved against the session's database
// db as a statement resolves it, is one of the set's tables.
func (ts *Temps) Holds(db string, name sqlparser.ObjectName) bool {
	tdb, table := splitName(db, name)
	_, ok := ts.tables[tempName{tdb, table}]
	return ok
}

// Overlay is the Storage a session's statements run over: its
// temporary tables resolve before Storage's tables of the same name in
// table lookups, writes and DROP TABLE; CREATE TEMPORARY TABLE adds to
// Temps. TableInfo, views and every other call go to Storage, so
// IMPORT never sees a temporary table. With Temps nil it is Storage.
type Overlay struct {
	Storage
	Temps *Temps
}

// temp returns the temporary table db.name, or nil. A session without
// temporary tables pays a length check, not a lookup.
func (o *Overlay) temp(db, name string) *RowTable {
	if o.Temps == nil || len(o.Temps.tables) == 0 {
		return nil
	}
	return o.Temps.tables[tempName{db, name}]
}

// TableForRead implements Storage.
func (o *Overlay) TableForRead(db, name string) (Table, error) {
	if t := o.temp(db, name); t != nil {
		return t, nil
	}
	return o.Storage.TableForRead(db, name)
}

// TableForWrite implements Storage.
func (o *Overlay) TableForWrite(db, name string) (Table, error) {
	if t := o.temp(db, name); t != nil {
		return t, nil
	}
	return o.Storage.TableForWrite(db, name)
}

// Insert implements Storage.
func (o *Overlay) Insert(db, name string, row schema.Row) error {
	if t := o.temp(db, name); t != nil {
		t.Rows = append(t.Rows, row)
		return nil
	}
	return o.Storage.Insert(db, name, row)
}

// Update implements Storage.
func (o *Overlay) Update(db, name string, pos int, row schema.Row) error {
	if t := o.temp(db, name); t != nil {
		return t.Set(pos, row)
	}
	return o.Storage.Update(db, name, pos, row)
}

// Delete implements Storage.
func (o *Overlay) Delete(db, name string, pos int) error {
	if t := o.temp(db, name); t != nil {
		return t.Set(pos, nil)
	}
	return o.Storage.Delete(db, name, pos)
}

// DropTable implements Storage.
func (o *Overlay) DropTable(db, name string) error {
	if o.temp(db, name) != nil {
		delete(o.Temps.tables, tempName{db, name})
		return nil
	}
	return o.Storage.DropTable(db, name)
}

// createTemp runs CREATE TEMPORARY TABLE db.name. The database must
// exist; a base table of the same name is shadowed, not refused.
func createTemp(tx Storage, db, name string, cols []schema.Column) error {
	o, ok := tx.(*Overlay)
	if !ok || o.Temps == nil {
		return ErrNoTemps
	}
	if o.temp(db, name) != nil {
		return fmt.Errorf("%w: temporary %s.%s", schema.ErrTableExists, db, name)
	}
	if _, err := o.Storage.TableInfo(db, name); errors.Is(err, schema.ErrNoDatabase) {
		return err
	}
	if o.Temps.tables == nil {
		o.Temps.tables = make(map[tempName]*RowTable)
	}
	o.Temps.tables[tempName{db, name}] = &RowTable{Cols: append([]schema.Column(nil), cols...)}
	return nil
}
