package sqlengine

import (
	"fmt"

	"msql/internal/relstore"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// columnIndex returns the position of the named column, or -1.
func columnIndex(cols []relstore.Column, name string) int {
	for i, c := range cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// rowBuilder returns the one definition of what INSERT does to a value
// list before storage sees it: the arity check against the target
// columns colIdx (positions in cols), NULL for the columns not named,
// and CoerceTo the declared kind of each. execInsert and Load share it.
// A full-width list whose values already have their columns' kinds is
// passed on as it is; storage never modifies a row it is handed.
func rowBuilder(cols []relstore.Column, colIdx []int) func(vals []sqlval.Value) (relstore.Row, error) {
	fullWidth := len(colIdx) == len(cols)
	for i, ti := range colIdx {
		fullWidth = fullWidth && ti == i
	}
	return func(vals []sqlval.Value) (relstore.Row, error) {
		if len(vals) != len(colIdx) {
			return nil, fmt.Errorf("sqlengine: INSERT has %d values for %d columns", len(vals), len(colIdx))
		}
		if fullWidth && conforms(vals, cols) {
			return vals, nil
		}
		row := make(relstore.Row, len(cols))
		for i := range row {
			row[i] = sqlval.Null()
		}
		for vi, ti := range colIdx {
			v, err := sqlval.CoerceTo(vals[vi], cols[ti].Type)
			if err != nil {
				return nil, fmt.Errorf("sqlengine: column %s: %v", cols[ti].Name, err)
			}
			row[ti] = v
		}
		return row, nil
	}
}

// conforms reports whether CoerceTo would leave every value as it is.
func conforms(vals []sqlval.Value, cols []relstore.Column) bool {
	for i, v := range vals {
		if !v.IsNull() && v.K != cols[i].Type {
			return false
		}
	}
	return true
}

// allColumns is the target list of an INSERT that names no columns.
func allColumns(cols []relstore.Column) []int {
	colIdx := make([]int, len(cols))
	for i := range colIdx {
		colIdx[i] = i
	}
	return colIdx
}

// Load inserts already-typed rows into a table of db: INSERT INTO table
// VALUES rows without the SQL text, for bulk row movement (the DOL
// engine's SHIP). The rows go through execInsert's row builder and
// Storage.Insert, so arity, coercion to the declared kinds and whatever
// the storage enforces (widths, keys) behave exactly as for the
// statement. It returns the number of rows inserted before any error.
func Load(tx Storage, db, table string, rows [][]sqlval.Value) (int, error) {
	tbl, err := tx.TableForWrite(db, table)
	if err != nil {
		return 0, err
	}
	cols := tbl.Columns()
	buildRow := rowBuilder(cols, allColumns(cols))
	for n, vals := range rows {
		row, err := buildRow(vals)
		if err != nil {
			return n, err
		}
		if err := tx.Insert(db, table, row); err != nil {
			return n, err
		}
	}
	return len(rows), nil
}

// execInsert handles INSERT ... VALUES and INSERT ... SELECT.
func execInsert(tx Storage, db string, ins *sqlparser.InsertStmt) (*Result, error) {
	tdb, tname := splitName(db, ins.Table)
	tbl, err := tx.TableForWrite(tdb, tname)
	if err != nil {
		return nil, err
	}
	cols := tbl.Columns()
	colIdx := make([]int, 0, len(ins.Columns))
	if len(ins.Columns) == 0 {
		colIdx = allColumns(cols)
	} else {
		for _, name := range ins.Columns {
			i := columnIndex(cols, name)
			if i < 0 {
				return nil, fmt.Errorf("%w: %s in %s.%s", ErrUnknownColumn, name, tdb, tname)
			}
			colIdx = append(colIdx, i)
		}
	}
	buildRow := rowBuilder(cols, colIdx)

	n := 0
	if ins.Query != nil {
		res, err := execSelect(tx, db, ins.Query, nil)
		if err != nil {
			return nil, err
		}
		for _, r := range res.Rows {
			row, err := buildRow(r)
			if err != nil {
				return nil, err
			}
			if err := tx.Insert(tdb, tname, row); err != nil {
				return nil, err
			}
			n++
		}
		return &Result{RowsAffected: n}, nil
	}

	e := &env{tx: tx, db: db}
	for _, exprRow := range ins.Rows {
		vals := make([]sqlval.Value, len(exprRow))
		for i, ex := range exprRow {
			v, err := evalExpr(e, ex)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		row, err := buildRow(vals)
		if err != nil {
			return nil, err
		}
		if err := tx.Insert(tdb, tname, row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{RowsAffected: n}, nil
}

// bindTarget write-locks the table an UPDATE or DELETE names and binds it
// as the single source of an env, so the WHERE clause goes through the
// planner and level iterators SELECT uses.
func bindTarget(tx Storage, db string, name sqlparser.ObjectName) (e *env, tdb, tname string, err error) {
	tdb, tname = splitName(db, name)
	tbl, err := tx.TableForWrite(tdb, tname)
	if err != nil {
		return nil, "", "", err
	}
	return &env{
		tx: tx, db: db,
		sources: []*boundSource{{qualifier: tname, cols: tbl.Columns(), tbl: tbl}},
		current: make([]relstore.Row, 1),
		pos:     make([]int, 1),
	}, tdb, tname, nil
}

// matchRows calls fn with the cursor position and contents of every
// target row satisfying where (all rows when where is nil), found by the
// access path the planner picks: one index probe when where pins the
// whole primary key of a storage that indexes it, a filtered scan
// otherwise. With ec set the plan is recorded under ec.node, and without
// ec.analyze nothing is read.
func matchRows(e *env, where sqlparser.Expr, ec *explainCtx, fn func(pos int, row relstore.Row) error) error {
	plan := planJoin(e, where)
	if ec != nil {
		ec.describeLevels(ec.node, e, plan)
		if !ec.analyze {
			return nil
		}
		e.stats = newExecStats(1)
		defer ec.annotate(e)
	}
	return runLoops(e, buildNodes(e, plan), func() (bool, error) {
		return true, fn(e.pos[0], e.current[0])
	})
}

// execUpdate handles UPDATE ... SET ... WHERE. Assignments are evaluated
// against the pre-update row values, and all matching rows are collected
// before any is modified, per SQL semantics.
func execUpdate(tx Storage, db string, upd *sqlparser.UpdateStmt, ec *explainCtx) (*Result, error) {
	e, tdb, tname, err := bindTarget(tx, db, upd.Table)
	if err != nil {
		return nil, err
	}
	cols := e.sources[0].cols
	assignIdx := make([]int, len(upd.Assigns))
	for i, a := range upd.Assigns {
		ci := columnIndex(cols, a.Column.Last())
		if ci < 0 {
			return nil, fmt.Errorf("%w: %s in %s.%s", ErrUnknownColumn, a.Column.Last(), tdb, tname)
		}
		assignIdx[i] = ci
	}

	type pending struct {
		pos int
		row relstore.Row
	}
	var updates []pending
	err = matchRows(e, upd.Where, ec, func(pos int, row relstore.Row) error {
		newRow := row.Clone()
		for ai, a := range upd.Assigns {
			v, err := evalExpr(e, a.Expr)
			if err != nil {
				return err
			}
			col := cols[assignIdx[ai]]
			cv, err := sqlval.CoerceTo(v, col.Type)
			if err != nil {
				return fmt.Errorf("sqlengine: column %s: %v", col.Name, err)
			}
			newRow[assignIdx[ai]] = cv
		}
		updates = append(updates, pending{pos: pos, row: newRow})
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, u := range updates {
		if err := tx.Update(tdb, tname, u.pos, u.row); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: len(updates)}, nil
}

// execDelete handles DELETE FROM ... WHERE. Victims are collected before
// any is removed; their positions stay valid while the statement runs.
func execDelete(tx Storage, db string, del *sqlparser.DeleteStmt, ec *explainCtx) (*Result, error) {
	e, tdb, tname, err := bindTarget(tx, db, del.Table)
	if err != nil {
		return nil, err
	}
	var victims []int
	err = matchRows(e, del.Where, ec, func(pos int, _ relstore.Row) error {
		victims = append(victims, pos)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, pos := range victims {
		if err := tx.Delete(tdb, tname, pos); err != nil {
			return nil, err
		}
	}
	return &Result{RowsAffected: len(victims)}, nil
}
