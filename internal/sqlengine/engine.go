// Package sqlengine executes parsed SQL statements against one open
// transaction of a storage engine, seen through the Storage interface
// (storage.go). It is the only SQL executor in the tree and implements
// the complete local query surface the paper's LDBMSs need: SELECT with
// joins, aggregates, grouping, ordering, scalar and IN subqueries;
// INSERT/UPDATE/DELETE; and DDL including views where the storage keeps
// them.
//
// The engine is stateless: every call receives the transaction and the
// session's current database, so the LDBMS session layer above it can
// implement autocommit and 2PC policies freely. It names columns, rows
// and missing objects in internal/schema's vocabulary and links no
// storage engine.
package sqlengine

import (
	"errors"
	"fmt"

	"msql/internal/obs"
	"msql/internal/schema"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// Common engine errors.
var (
	ErrUnknownColumn   = errors.New("sqlengine: unknown column")
	ErrAmbiguousColumn = errors.New("sqlengine: ambiguous column")
	ErrNotScalar       = errors.New("sqlengine: subquery returned more than one row")
)

// ResultCol describes one output column.
type ResultCol struct {
	Name string
	Type sqlval.Kind
}

// Result is the outcome of one statement. Plan is non-nil only for
// EXPLAIN statements: the plan tree the executor chose, annotated with
// runtime statistics under ANALYZE.
type Result struct {
	Columns      []ResultCol
	Rows         [][]sqlval.Value
	RowsAffected int
	Plan         *obs.PlanNode
}

// ColumnNames returns the output column names.
func (r *Result) ColumnNames() []string {
	names := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		names[i] = c.Name
	}
	return names
}

// Execute runs stmt inside tx with db as the session's current database.
// Table names may be qualified as database.table on servers exposing
// multiple databases.
func Execute(tx Storage, db string, stmt sqlparser.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		return execSelect(tx, db, s, nil)
	case *sqlparser.ExplainStmt:
		return execExplain(tx, db, s)
	case *sqlparser.InsertStmt:
		return execInsert(tx, db, s)
	case *sqlparser.UpdateStmt:
		return execUpdate(tx, db, s, nil)
	case *sqlparser.DeleteStmt:
		return execDelete(tx, db, s, nil)
	case *sqlparser.CreateTableStmt:
		tdb, tname := splitName(db, s.Table)
		var err error
		if s.Temporary {
			err = createTemp(tx, tdb, tname, s.Columns)
		} else {
			err = tx.CreateTable(tdb, tname, s.Columns)
		}
		if err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.DropTableStmt:
		tdb, tname := splitName(db, s.Table)
		err := tx.DropTable(tdb, tname)
		if err != nil && s.IfExists && errors.Is(err, schema.ErrNoTable) {
			return &Result{}, nil
		}
		if err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.CreateDatabaseStmt:
		if err := tx.CreateDatabase(s.Database); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.DropDatabaseStmt:
		if err := tx.DropDatabase(s.Database); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.CreateViewStmt:
		vdb, vname := splitName(db, s.View)
		if err := tx.CreateView(vdb, vname, sqlparser.Deparse(s.Query)); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sqlparser.DropViewStmt:
		vdb, vname := splitName(db, s.View)
		if err := tx.DropView(vdb, vname); err != nil {
			return nil, err
		}
		return &Result{}, nil
	default:
		return nil, fmt.Errorf("sqlengine: unsupported statement %T", stmt)
	}
}

// ExecuteSQL parses and executes one statement given as text.
func ExecuteSQL(tx Storage, db, src string) (*Result, error) {
	stmt, err := sqlparser.ParseStatement(src)
	if err != nil {
		return nil, err
	}
	return Execute(tx, db, stmt)
}

// splitName resolves an optionally database-qualified object name against
// the session's current database.
func splitName(db string, n sqlparser.ObjectName) (string, string) {
	if len(n.Parts) >= 2 {
		return n.Parts[0], n.Parts[1]
	}
	return db, n.Last()
}

// DescribeTable reports the schema and row count of a table or view for
// IMPORT. Views are described by executing their definition and report
// no count.
func DescribeTable(tx Storage, db, name string) (schema.Table, error) {
	t, err := tx.TableInfo(db, name)
	if err != nil {
		if !errors.Is(err, schema.ErrNoTable) {
			return schema.Table{}, err
		}
		src, err := bindView(tx, db, name, name, err)
		if err != nil {
			return schema.Table{}, err
		}
		t = schema.Table{Columns: src.cols}
	}
	t.Columns = append([]schema.Column(nil), t.Columns...)
	return t, nil
}
