// Package schema is the vocabulary every tier uses to describe local
// data: the column and row types, and the errors for objects that do not
// exist or already do. The paper's multidatabase layer sees a local
// product only through what INCORPORATE and IMPORT declare (§2), so the
// parser, the global data dictionary, the planner, the wire and every
// storage engine name a column the same way without depending on any one
// engine.
//
// The sentinels are engine-neutral: relstore and csvstore both return
// them (wrapped with the object's name), and the wire carries them as
// codes so errors.Is holds across a TCP round trip.
package schema

import (
	"errors"

	"msql/internal/sqlval"
)

// Errors every storage engine reports the same way.
var (
	ErrNoDatabase    = errors.New("no such database")
	ErrNoTable       = errors.New("no such table")
	ErrNoView        = errors.New("no such view")
	ErrDBExists      = errors.New("database already exists")
	ErrTableExists   = errors.New("table already exists")
	ErrLockTimeout   = errors.New("lock wait timeout (possible deadlock)")
	ErrWidthExceeded = errors.New("value exceeds declared column width")
	ErrDuplicateKey  = errors.New("duplicate primary key")
)

// Column describes one table column, as declared by CREATE TABLE,
// recorded in the GDD and reported by a local product's Describe.
type Column struct {
	Name  string
	Type  sqlval.Kind
	Width int  // CHAR(n) width; 0 = unbounded
	Key   bool // part of the primary key: indexed, unique, NOT NULL
}

// Row is one tuple.
type Row []sqlval.Value

// Clone copies the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}
