package sqlengine

import (
	"errors"
	"fmt"
	"sort"

	"msql/internal/schema"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// boundSource is one FROM-clause input. Base tables carry the storage's
// table and are scanned lazily through its cursor; views are
// materialized into rows.
type boundSource struct {
	qualifier string // alias, or the table/view name
	cols      []schema.Column
	tbl       Table        // base table scanned in place; nil for views
	rows      []schema.Row // materialized rows when tbl is nil
}

// env is the expression evaluation environment: the current row of every
// bound source, an optional parent for correlated subqueries, and
// aggregate results when evaluating grouped projections.
type env struct {
	tx      Storage
	db      string
	sources []*boundSource
	current []schema.Row // current row per source
	pos     []int        // cursor position of current[i]; set by scans and probes of base tables
	parent  *env
	aggs    map[*sqlparser.FuncCall]sqlval.Value
	stats   *execStats // per-level runtime counters; non-nil under ANALYZE
}

// execSelect runs a SELECT, including UNION branches. outer is the
// enclosing environment for correlated subqueries, nil at the top level.
func execSelect(tx Storage, db string, sel *sqlparser.SelectStmt, outer *env) (*Result, error) {
	return execSelectEx(tx, db, sel, outer, nil)
}

// execSelectEx is execSelect with an optional explain context: when ec is
// non-nil the chosen plan is recorded under ec.node, and with ec.analyze
// unset the statement is planned but not executed.
func execSelectEx(tx Storage, db string, sel *sqlparser.SelectStmt, outer *env, ec *explainCtx) (*Result, error) {
	if len(sel.Unions) == 0 {
		return execSingleSelect(tx, db, sel, outer, ec)
	}
	if ec != nil {
		ec.node.Op = "union"
	}
	base := *sel
	base.Unions = nil
	res, err := execSingleSelect(tx, db, &base, outer, ec.branch())
	if err != nil {
		return nil, err
	}
	dedupe := false
	for _, u := range sel.Unions {
		if !u.All {
			dedupe = true
		}
		part, err := execSelectEx(tx, db, u.Select, outer, ec.branch())
		if err != nil {
			return nil, err
		}
		if len(part.Columns) != len(res.Columns) {
			return nil, fmt.Errorf("sqlengine: UNION branches have %d and %d columns", len(res.Columns), len(part.Columns))
		}
		res.Rows = append(res.Rows, part.Rows...)
	}
	if dedupe {
		seen := map[string]bool{}
		kept := res.Rows[:0]
		for _, r := range res.Rows {
			key := ""
			for _, v := range r {
				key += v.GroupKey() + "\x00"
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			kept = append(kept, r)
		}
		res.Rows = kept
	}
	res.RowsAffected = len(res.Rows)
	return res, nil
}

// execSingleSelect runs one union-free SELECT branch.
func execSingleSelect(tx Storage, db string, sel *sqlparser.SelectStmt, outer *env, ec *explainCtx) (*Result, error) {
	e := &env{tx: tx, db: db, parent: outer}
	for _, ref := range sel.From {
		src, err := bindSource(tx, db, ref)
		if err != nil {
			return nil, err
		}
		e.sources = append(e.sources, src)
	}
	e.current = make([]schema.Row, len(e.sources))
	e.pos = make([]int, len(e.sources))

	// The join planner pushes WHERE conjuncts down to the first loop
	// level where they are fully bound, turns equality conjuncts across
	// sources into hash-join probes, and upgrades levels whose primary
	// key is fully pinned to single-row index probes. buildNodes turns
	// the plan into an iterator per level and runLoops drives them.
	plan := planJoin(e, sel.Where)
	if ec != nil {
		ec.describe(e, sel, plan)
		if !ec.analyze {
			// Plain EXPLAIN: report the plan without executing. Output
			// columns are still computed so UNION shape checks hold.
			cols, _, err := expandItems(e, sel)
			if err != nil {
				cols = nil
			}
			return &Result{Columns: cols}, nil
		}
		e.stats = newExecStats(len(e.sources))
		defer ec.annotate(e)
	}

	// noFromRow runs the FROM-less case: one empty row, unless WHERE
	// filters it.
	noFromRow := func(emit func() (bool, error)) error {
		keep := true
		if sel.Where != nil {
			v, err := evalExpr(e, sel.Where)
			if err != nil {
				return err
			}
			keep = v.Truthy()
		}
		if keep {
			_, err := emit()
			return err
		}
		return nil
	}

	if len(sel.GroupBy) > 0 || len(collectAggregates(sel)) > 0 {
		// Grouped queries need every input row before aggregation, so
		// they still collect the joined rows.
		var inputs [][]schema.Row
		collect := func() (bool, error) {
			inputs = append(inputs, append([]schema.Row(nil), e.current...))
			return true, nil
		}
		if len(e.sources) == 0 {
			if err := noFromRow(collect); err != nil {
				return nil, err
			}
		} else if err := runLoops(e, buildNodes(e, plan), collect); err != nil {
			return nil, err
		}
		return execGrouped(e, sel, inputs)
	}

	// Ungrouped: stream each joined row straight through the projection.
	// Without ORDER BY or DISTINCT a LIMIT can stop the scan early.
	cols, items, err := expandItems(e, sel)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: cols}
	var outs []rowWithKeys
	earlyLimit := sel.Limit >= 0 && len(sel.OrderBy) == 0 && !sel.Distinct
	emit := func() (bool, error) {
		if earlyLimit && len(outs) >= sel.Limit {
			return false, nil
		}
		vals := make([]sqlval.Value, len(items))
		for i, it := range items {
			v, err := evalExpr(e, it)
			if err != nil {
				return false, err
			}
			vals[i] = v
		}
		keys, err := orderKeys(e, sel, cols, vals)
		if err != nil {
			return false, err
		}
		outs = append(outs, rowWithKeys{vals: vals, keys: keys})
		return !earlyLimit || len(outs) < sel.Limit, nil
	}
	if len(e.sources) == 0 {
		if err := noFromRow(emit); err != nil {
			return nil, err
		}
	} else if err := runLoops(e, buildNodes(e, plan), emit); err != nil {
		return nil, err
	}
	return finishResult(sel, res, outs)
}

// bindSource binds one FROM entry: a base table, a view, or a
// database-qualified name. Base tables are bound by reference and
// scanned lazily during execution; views run their definition and
// materialize the result.
func bindSource(tx Storage, db string, ref sqlparser.TableRef) (*boundSource, error) {
	tdb, tname := splitName(db, ref.Name)
	qual := ref.Alias
	if qual == "" {
		qual = tname
	}
	tbl, err := tx.TableForRead(tdb, tname)
	if err == nil {
		return &boundSource{qualifier: qual, cols: tbl.Columns(), tbl: tbl}, nil
	}
	if !errors.Is(err, schema.ErrNoTable) {
		return nil, err
	}
	return bindView(tx, tdb, tname, qual, err)
}

// bindView runs the definition of view tdb.tname and binds the
// materialized result. noTable is what the caller got looking for a base
// table of that name; it is returned when there is no such view either.
func bindView(tx Storage, tdb, tname, qual string, noTable error) (*boundSource, error) {
	def, err := tx.ViewDefinition(tdb, tname)
	if err != nil {
		return nil, noTable
	}
	stmt, err := sqlparser.ParseStatement(def)
	if err != nil {
		return nil, fmt.Errorf("sqlengine: bad view definition %s.%s: %v", tdb, tname, err)
	}
	vsel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlengine: view %s.%s is not a SELECT", tdb, tname)
	}
	res, err := execSelect(tx, tdb, vsel, nil)
	if err != nil {
		return nil, err
	}
	src := &boundSource{qualifier: qual}
	for _, c := range res.Columns {
		src.cols = append(src.cols, schema.Column{Name: c.Name, Type: c.Type})
	}
	for _, r := range res.Rows {
		src.rows = append(src.rows, schema.Row(r))
	}
	return src, nil
}

type rowWithKeys struct {
	vals []sqlval.Value
	keys []sqlval.Value
}

// finishResult applies ORDER BY keys, DISTINCT and LIMIT.
func finishResult(sel *sqlparser.SelectStmt, res *Result, rows []rowWithKeys) (*Result, error) {
	if len(sel.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for k := range sel.OrderBy {
				c := sqlval.SortCompare(rows[i].keys[k], rows[j].keys[k])
				if c == 0 {
					continue
				}
				if sel.OrderBy[k].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if sel.Distinct {
			key := ""
			for _, v := range r.vals {
				key += v.GroupKey() + "\x00"
			}
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		res.Rows = append(res.Rows, r.vals)
		if sel.Limit >= 0 && len(res.Rows) >= sel.Limit {
			break
		}
	}
	if sel.Limit == 0 {
		res.Rows = nil
	}
	res.RowsAffected = len(res.Rows)
	// Infer types for columns whose type is still NULL from the data.
	for ci := range res.Columns {
		if res.Columns[ci].Type != sqlval.KindNull {
			continue
		}
		for _, r := range res.Rows {
			if !r[ci].IsNull() {
				res.Columns[ci].Type = r[ci].K
				break
			}
		}
	}
	return res, nil
}

// expandItems expands stars and computes output column descriptors.
func expandItems(e *env, sel *sqlparser.SelectStmt) ([]ResultCol, []sqlparser.Expr, error) {
	var cols []ResultCol
	var items []sqlparser.Expr
	for _, it := range sel.Items {
		switch {
		case it.Star && it.Qualifier == "":
			for _, src := range e.sources {
				for _, c := range src.cols {
					cols = append(cols, ResultCol{Name: c.Name, Type: c.Type})
					items = append(items, sqlparser.ColRef{Parts: []string{src.qualifier, c.Name}})
				}
			}
			if len(e.sources) == 0 {
				return nil, nil, fmt.Errorf("sqlengine: SELECT * without FROM")
			}
		case it.Star:
			src := e.findSource(it.Qualifier)
			if src == nil {
				return nil, nil, fmt.Errorf("sqlengine: unknown qualifier %q", it.Qualifier)
			}
			for _, c := range src.cols {
				cols = append(cols, ResultCol{Name: c.Name, Type: c.Type})
				items = append(items, sqlparser.ColRef{Parts: []string{src.qualifier, c.Name}})
			}
		default:
			name := it.Alias
			if name == "" {
				if cr, ok := it.Expr.(sqlparser.ColRef); ok {
					name = cr.Last()
				} else {
					name = sqlparser.DeparseExpr(it.Expr)
				}
			}
			typ := sqlval.KindNull
			if cr, ok := it.Expr.(sqlparser.ColRef); ok {
				if _, c, err := e.resolve(cr); err == nil {
					typ = c.Type
				}
			}
			cols = append(cols, ResultCol{Name: name, Type: typ})
			items = append(items, it.Expr)
		}
	}
	return cols, items, nil
}

// orderKeys evaluates ORDER BY expressions for one output row. An ORDER BY
// expression that names an output alias uses the projected value.
func orderKeys(e *env, sel *sqlparser.SelectStmt, cols []ResultCol, vals []sqlval.Value) ([]sqlval.Value, error) {
	if len(sel.OrderBy) == 0 {
		return nil, nil
	}
	keys := make([]sqlval.Value, len(sel.OrderBy))
	for i, ob := range sel.OrderBy {
		if cr, ok := ob.Expr.(sqlparser.ColRef); ok && len(cr.Parts) == 1 {
			found := false
			for ci, c := range cols {
				if c.Name == cr.Parts[0] {
					keys[i] = vals[ci]
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		// Positional ORDER BY n.
		if lit, ok := ob.Expr.(*sqlparser.Literal); ok {
			if n, isInt := lit.Val.AsInt(); isInt && lit.Val.K == sqlval.KindInt && n >= 1 && int(n) <= len(vals) {
				keys[i] = vals[n-1]
				continue
			}
		}
		v, err := evalExpr(e, ob.Expr)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

func (e *env) findSource(qual string) *boundSource {
	for _, s := range e.sources {
		if s.qualifier == qual {
			return s
		}
	}
	return nil
}

// colAddr addresses one column of an env: column col of source src.
type colAddr struct{ src, col int }

// resolve finds the source and column for a reference.
func (e *env) resolve(cr sqlparser.ColRef) (colAddr, schema.Column, error) {
	switch len(cr.Parts) {
	case 1:
		name := cr.Parts[0]
		found := colAddr{-1, -1}
		for si, s := range e.sources {
			for ci, c := range s.cols {
				if c.Name == name {
					if found.src >= 0 {
						return colAddr{}, schema.Column{}, fmt.Errorf("%w: %s", ErrAmbiguousColumn, name)
					}
					found = colAddr{si, ci}
				}
			}
		}
		if found.src < 0 {
			return colAddr{}, schema.Column{}, fmt.Errorf("%w: %s", ErrUnknownColumn, name)
		}
		return found, e.sources[found.src].cols[found.col], nil
	case 2:
		qual, name := cr.Parts[0], cr.Parts[1]
		for si, s := range e.sources {
			if s.qualifier != qual {
				continue
			}
			for ci, c := range s.cols {
				if c.Name == name {
					return colAddr{si, ci}, c, nil
				}
			}
			return colAddr{}, schema.Column{}, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, qual, name)
		}
		return colAddr{}, schema.Column{}, fmt.Errorf("%w: %s.%s", ErrUnknownColumn, qual, name)
	default:
		// db.table.column: match on the trailing two components.
		return e.resolve(sqlparser.ColRef{Parts: cr.Parts[len(cr.Parts)-2:], Optional: cr.Optional})
	}
}

// lookup returns the current value of a reference, consulting parent
// environments for correlated subqueries.
func (e *env) lookup(cr sqlparser.ColRef) (sqlval.Value, error) {
	at, _, err := e.resolve(cr)
	if err == nil {
		row := e.current[at.src]
		if row == nil {
			return sqlval.Null(), nil
		}
		return row[at.col], nil
	}
	if e.parent != nil {
		if v, perr := e.parent.lookup(cr); perr == nil {
			return v, nil
		}
	}
	if cr.Optional {
		return sqlval.Null(), nil
	}
	return sqlval.Null(), err
}
