package sqlengine

import (
	"msql/internal/schema"
	"msql/internal/sqlval"
	"msql/internal/storage"
)

// Storage is what the executor needs from one open transaction of a
// storage engine: catalog lookups, row cursors, and writes addressed by
// cursor position. It is the only thing the executor knows about the
// engine underneath, so every backend runs the same SQL semantics and
// differs only in what its storage can do (locks, keys, views, prepare).
//
// The contract, stated once (DESIGN.md §11 repeats it for operators):
//
//   - Missing objects are reported with the schema sentinels
//     (ErrNoDatabase, ErrNoTable, ErrNoView) so the wire taxonomy is the
//     same for every backend.
//   - The executor coerces every value to its column's declared kind
//     before Insert/Update; the storage validates and enforces whatever
//     else it declares (widths, key uniqueness) — or nothing.
//   - A cursor yields live rows in insertion order. The position it
//     returns with a row addresses that row in Update/Delete and stays
//     valid until the statement ends, whatever the statement writes in
//     the meantime. Rows handed out are read-only.
type Storage interface {
	TableForRead(db, table string) (Table, error)
	TableForWrite(db, table string) (Table, error)
	// TableColumns reads a base table's schema from the catalog without
	// locking the table: IMPORT describes tables that other sessions
	// hold prepared.
	TableColumns(db, table string) ([]schema.Column, error)
	// ViewDefinition returns the SELECT text of a stored view.
	ViewDefinition(db, view string) (string, error)

	Insert(db, table string, row schema.Row) error
	Update(db, table string, pos int, row schema.Row) error
	Delete(db, table string, pos int) error

	CreateTable(db, table string, cols []schema.Column) error
	DropTable(db, table string) error
	CreateDatabase(name string) error
	DropDatabase(name string) error
	CreateView(db, view, definition string) error
	DropView(db, view string) error
}

// Table is one base table resolved inside a transaction.
type Table interface {
	Columns() []schema.Column
	// Scan opens a cursor positioned before the first row. Page traffic
	// is recorded on pc, which may be nil; engines without pages ignore
	// it.
	Scan(pc *storage.PageCounters) Cursor
	// Err returns the first storage fault a cursor or probe of this
	// table hit; a cursor that faults simply ends.
	Err() error
}

// Cursor is a pull iterator over a table's live rows.
type Cursor interface {
	Next() (pos int, row schema.Row, ok bool)
	// Reset repositions the cursor before the first row.
	Reset()
}

// KeyProber is implemented by tables whose storage keeps a unique index
// over the declared key columns. The planner turns a fully pinned key
// into one LookupKey + RowAt instead of a scan; tables without the
// index are always scanned.
type KeyProber interface {
	// KeyColumns returns the indexed column positions in key order.
	KeyColumns() []int
	// LookupKey returns the position of the row whose key columns equal
	// vals (already coerced to the key columns' kinds).
	LookupKey(vals []sqlval.Value) (pos int, ok bool)
	// RowAt reads the row at a position LookupKey returned.
	RowAt(pos int, pc *storage.PageCounters) schema.Row
}
