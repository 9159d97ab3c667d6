// Package decompose implements the decomposition phase of the paper's
// pipeline (§4.3): a global fully qualified elementary query Q is split
// into SQL subqueries q1..qn — one per involved LDBS, each as large as
// possible — plus a modified global query Q' that one LDBS, designated as
// the coordinator, evaluates over shipped partial results.
//
// Fan-out elementary queries (one database) pass through as a single
// subquery. Cross-database SELECTs are split by query-graph analysis:
// WHERE conjuncts whose references stay inside one database execute
// there; cross-database conjuncts, grouping, ordering and aggregation
// move to Q'. Cross-database INSERT ... SELECT ships the source result to
// the target database.
package decompose

import (
	"errors"
	"fmt"
	"sort"

	"msql/internal/catalog"
	"msql/internal/schema"
	"msql/internal/semvar"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// Decomposition errors.
var (
	ErrUnsupported = errors.New("decompose: unsupported global query shape")
)

// Subquery is one local piece, executed at a single database.
type Subquery struct {
	Database string // actual database name
	Name     string // scope name (alias) when known, else the database
	Vital    bool
	Stmt     sqlparser.Statement
}

// SQL renders the subquery.
func (s Subquery) SQL() string { return sqlparser.Deparse(s.Stmt) }

// Ship moves the result of a subquery into a temporary table at the
// coordinator.
type Ship struct {
	FromIndex int // index into Plan.Subqueries
	Table     string
	Columns   []schema.Column
}

// Estimate is one database group of a cross-database SELECT with the
// estimated size of its local result, in rows.
type Estimate struct {
	Database string
	Rows     float64
}

// Plan is the decomposed form of one elementary query.
type Plan struct {
	// Subqueries run at their databases, in parallel when independent.
	Subqueries []Subquery
	// CoordinatorDB hosts the temporary tables and evaluates Final. Empty
	// for plans without a global step.
	CoordinatorDB string
	// Estimates lists the groups of a cross-database SELECT in FROM
	// order, each with its estimated local result. The coordinator is the
	// largest. Empty for every other plan.
	Estimates []Estimate
	// Ships move subquery results to the coordinator.
	Ships []Ship
	// Final is the modified global query Q', evaluated at the coordinator
	// after all ships complete. Nil when no global step is needed.
	Final sqlparser.Statement
	// Cleanup lists temporary tables to drop at the coordinator.
	Cleanup []string
}

// FinalSQL renders the modified global query.
func (p *Plan) FinalSQL() string {
	if p.Final == nil {
		return ""
	}
	return sqlparser.Deparse(p.Final)
}

// Decompose turns one elementary query into a plan.
func Decompose(gdd *catalog.GDD, el semvar.Elementary) (*Plan, error) {
	if !el.Global {
		return &Plan{Subqueries: []Subquery{{
			Database: el.Entry.Database,
			Name:     el.Entry.Name,
			Vital:    el.Entry.Vital,
			Stmt:     el.Stmt,
		}}}, nil
	}
	switch st := el.Stmt.(type) {
	case *sqlparser.SelectStmt:
		return decomposeSelect(gdd, st)
	case *sqlparser.InsertStmt:
		return decomposeInsert(gdd, st)
	case *sqlparser.UpdateStmt, *sqlparser.DeleteStmt, *sqlparser.CreateTableStmt, *sqlparser.DropTableStmt:
		target, _ := sqlparser.Target(st)
		return singleDBDML(target, el.Stmt)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, el.Stmt)
	}
}

// singleDBDML strips the database prefix of a DML/DDL statement targeting
// one database.
func singleDBDML(table sqlparser.ObjectName, stmt sqlparser.Statement) (*Plan, error) {
	if len(table.Parts) < 2 {
		return nil, fmt.Errorf("%w: unqualified global DML target", ErrUnsupported)
	}
	db := table.Parts[0]
	local := sqlparser.RewriteStatement(stmt, sqlparser.Rewriter{
		Table: func(n sqlparser.ObjectName) sqlparser.ObjectName {
			if len(n.Parts) >= 2 && n.Parts[0] == db {
				return sqlparser.Name(n.Parts[1:]...)
			}
			return n
		},
	})
	// A DML statement whose subqueries or UNION branches still name
	// another database cannot be pushed to one site.
	if len(databases(local)) > 0 {
		return nil, fmt.Errorf("%w: DML with cross-database subquery", ErrUnsupported)
	}
	return &Plan{Subqueries: []Subquery{{Database: db, Name: db, Stmt: local}}}, nil
}

// group is the per-database portion of a global SELECT.
type group struct {
	db      string
	refs    []sqlparser.TableRef // with db-qualified names
	aliases map[string]bool
}

// decomposeSelect splits a cross-database SELECT.
func decomposeSelect(gdd *catalog.GDD, sel *sqlparser.SelectStmt) (*Plan, error) {
	// Blocks beyond sel and its UNION branches are nested subqueries.
	blocks := 0
	sqlparser.Selects(sel, func(*sqlparser.SelectStmt) { blocks++ })
	if blocks > 1+len(sel.Unions) {
		return nil, fmt.Errorf("%w: global SELECT with nested subquery", ErrUnsupported)
	}
	if err := unionInOneDatabase(sel); err != nil {
		return nil, err
	}
	groups, aliasDB, err := groupByDatabase(sel.From)
	if err != nil {
		return nil, err
	}
	if len(groups) == 1 {
		// One database after all: push everything there.
		local := stripDBPrefix(sel, groups[0].db)
		return &Plan{Subqueries: []Subquery{{Database: groups[0].db, Name: groups[0].db, Stmt: local}}}, nil
	}

	conjuncts := sqlparser.Conjuncts(sel.Where)
	localConj := make(map[string][]sqlparser.Expr)
	var globalConj []sqlparser.Expr
	for _, c := range conjuncts {
		dbs := referencedDBs(c, aliasDB)
		if len(dbs) == 1 {
			var db string
			for d := range dbs {
				db = d
			}
			localConj[db] = append(localConj[db], c)
		} else {
			globalConj = append(globalConj, c)
		}
	}

	// Columns needed above the local level: everything referenced by the
	// projection, global conjuncts, grouping, having and ordering.
	needed := make(map[string]map[string]bool) // alias -> column set
	note := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
			if c, ok := x.(sqlparser.ColRef); ok && len(c.Parts) == 2 {
				if needed[c.Parts[0]] == nil {
					needed[c.Parts[0]] = make(map[string]bool)
				}
				needed[c.Parts[0]][c.Parts[1]] = true
			}
		})
	}
	for _, it := range sel.Items {
		if it.Star {
			return nil, fmt.Errorf("%w: SELECT * in a cross-database join; name the columns", ErrUnsupported)
		}
		note(it.Expr)
	}
	for _, c := range globalConj {
		note(c)
	}
	for _, g := range sel.GroupBy {
		note(g)
	}
	note(sel.Having)
	for _, o := range sel.OrderBy {
		note(o.Expr)
	}

	// The coordinator is the group with the largest estimated result:
	// its rows are the ones Q' reads in place instead of receiving. Ties
	// keep FROM order.
	plan := &Plan{}
	coord := 0
	for i, g := range groups {
		plan.Estimates = append(plan.Estimates, Estimate{Database: g.db, Rows: estimate(gdd, g, localConj[g.db])})
		if plan.Estimates[i].Rows > plan.Estimates[coord].Rows {
			coord = i
		}
	}
	plan.CoordinatorDB = groups[coord].db
	// Shipped columns are referenced qualified by their temp table, so
	// that a coordinator column of the same name cannot capture them.
	rename := make(map[string]sqlparser.ColRef) // "alias.col" -> mtmp_db.alias_col

	for i, g := range groups {
		if i == coord {
			continue
		}
		tmp := "mtmp_" + g.db
		// Local subquery: needed columns of this group's aliases.
		var items []sqlparser.SelectItem
		var cols []schema.Column
		aliasList := sortedKeys(g.aliases)
		for _, alias := range aliasList {
			colSet := needed[alias]
			for _, col := range sortedKeys(colSet) {
				shipped := alias + "_" + col
				items = append(items, sqlparser.SelectItem{
					Expr:  sqlparser.ColRef{Parts: []string{alias, col}},
					Alias: shipped,
				})
				rename[alias+"."+col] = sqlparser.ColRef{Parts: []string{tmp, shipped}}
				ct, err := columnType(gdd, g, alias, col)
				if err != nil {
					return nil, err
				}
				cols = append(cols, schema.Column{Name: shipped, Type: ct.Type, Width: ct.Width})
			}
		}
		if len(items) == 0 {
			// The group participates only through its cardinality (e.g. a
			// pure cross join); ship a constant.
			items = append(items, sqlparser.SelectItem{
				Expr:  &sqlparser.Literal{Val: oneValue()},
				Alias: "one_" + g.db,
			})
			cols = append(cols, schema.Column{Name: "one_" + g.db, Type: oneValue().K})
		}
		local := &sqlparser.SelectStmt{Items: items, Limit: -1}
		for _, r := range g.refs {
			local.From = append(local.From, sqlparser.TableRef{
				Name:  sqlparser.Name(r.Name.Parts[1]),
				Alias: r.Alias,
			})
		}
		local.Where = sqlparser.And(localConj[g.db])
		plan.Subqueries = append(plan.Subqueries, Subquery{Database: g.db, Name: g.db, Stmt: local})
		plan.Ships = append(plan.Ships, Ship{FromIndex: len(plan.Subqueries) - 1, Table: tmp, Columns: cols})
		plan.Cleanup = append(plan.Cleanup, tmp)
	}

	// Q': the original query over the temp tables and the coordinator's
	// own base tables, with the shipped groups' alias.col renamed to
	// their temp-table columns.
	rw := sqlparser.Rewriter{
		Col: func(c sqlparser.ColRef) sqlparser.Expr {
			if len(c.Parts) == 2 {
				if n, ok := rename[c.Parts[0]+"."+c.Parts[1]]; ok {
					return n
				}
			}
			return c
		},
	}
	final := rw.RewriteSelect(sel)
	// Keep the user's column names on the final projection: a shipped
	// column alias_col is renamed back to its original column name.
	for i := range final.Items {
		if final.Items[i].Alias != "" || final.Items[i].Star {
			continue
		}
		if orig, ok := sel.Items[i].Expr.(sqlparser.ColRef); ok && len(orig.Parts) == 2 {
			final.Items[i].Alias = orig.Parts[1]
		}
	}
	// The coordinator's tables come last, so that a key equality with a
	// shipped column probes their index instead of scanning them; its
	// local conjuncts, which no subquery ran, filter them here.
	final.From = nil
	for _, s := range plan.Ships {
		final.From = append(final.From, sqlparser.TableRef{Name: sqlparser.Name(s.Table)})
	}
	for _, r := range groups[coord].refs {
		ref := sqlparser.TableRef{Name: sqlparser.Name(r.Name.Parts[1]), Alias: r.Alias}
		if ref.Alias == r.Name.Parts[1] {
			ref.Alias = ""
		}
		final.From = append(final.From, ref)
	}
	final.Where = sqlparser.And(append(localConj[groups[coord].db], rewriteAll(globalConj, rw)...))
	plan.Final = final
	return plan, nil
}

// decomposeInsert handles INSERT INTO dbT.t ... with a SELECT possibly at
// another database.
func decomposeInsert(gdd *catalog.GDD, ins *sqlparser.InsertStmt) (*Plan, error) {
	if len(ins.Table.Parts) < 2 {
		return nil, fmt.Errorf("%w: unqualified global INSERT target", ErrUnsupported)
	}
	targetDB := ins.Table.Parts[0]
	targetTable := ins.Table.Parts[1]
	if ins.Query == nil {
		// Literal inserts go straight to the target.
		return singleDBDML(ins.Table, ins)
	}
	if err := unionInOneDatabase(ins.Query); err != nil {
		return nil, err
	}
	groups, _, err := groupByDatabase(ins.Query.From)
	if err != nil {
		return nil, err
	}
	if len(groups) == 1 && groups[0].db == targetDB {
		return singleDBDML(ins.Table, ins)
	}
	if len(groups) != 1 {
		return nil, fmt.Errorf("%w: INSERT ... SELECT joining several databases", ErrUnsupported)
	}
	srcDB := groups[0].db
	// The data transfer pattern: run the SELECT at the source, ship the
	// rows to the target, insert there from the temp table.
	localSel := stripDBPrefix(ins.Query, srcDB).(*sqlparser.SelectStmt)
	// Column descriptors for the shipped table come from the target
	// table's schema (the INSERT column list defines arity and types).
	tdef, err := gdd.Table(targetDB, targetTable)
	if err != nil {
		return nil, err
	}
	wanted := ins.Columns
	if len(wanted) == 0 {
		wanted = tdef.ColumnNames()
	}
	var cols []schema.Column
	for _, w := range wanted {
		found := false
		for _, c := range tdef.Columns {
			if c.Name == w {
				cols = append(cols, c)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("decompose: target %s.%s has no column %s", targetDB, targetTable, w)
		}
	}
	if len(localSel.Items) != len(cols) {
		return nil, fmt.Errorf("decompose: INSERT has %d target columns but SELECT yields %d", len(cols), len(localSel.Items))
	}
	tmp := "mtmp_xfer"
	shipCols := make([]schema.Column, len(cols))
	for i, c := range cols {
		shipCols[i] = schema.Column{Name: c.Name, Type: c.Type, Width: c.Width}
	}
	finalIns := &sqlparser.InsertStmt{
		Table:   sqlparser.Name(targetTable),
		Columns: append([]string(nil), wanted...),
		Query: &sqlparser.SelectStmt{
			Items: starItems(wanted),
			From:  []sqlparser.TableRef{{Name: sqlparser.Name(tmp)}},
			Limit: -1,
		},
	}
	return &Plan{
		Subqueries:    []Subquery{{Database: srcDB, Name: srcDB, Stmt: localSel}},
		CoordinatorDB: targetDB,
		Ships:         []Ship{{FromIndex: 0, Table: tmp, Columns: shipCols}},
		Final:         finalIns,
		Cleanup:       []string{tmp},
	}, nil
}

func starItems(cols []string) []sqlparser.SelectItem {
	items := make([]sqlparser.SelectItem, len(cols))
	for i, c := range cols {
		items[i] = sqlparser.SelectItem{Expr: sqlparser.ColRef{Parts: []string{c}}}
	}
	return items
}

// Size estimation in the style of System R (Selinger et al., SIGMOD
// 1979): a table's row count as IMPORT recorded it, times a fixed
// selectivity per local conjunct. The figures only have to rank groups
// against each other, so they are constants, not settings.
const (
	unknownRows = 1000 // a table whose row count the GDD does not know
	selEquality = 1.0 / 10
	selRange    = 1.0 / 3
	selOther    = 1.0 / 2
)

// estimate sizes a group's local result: the product of its tables' row
// counts and of its local conjuncts' selectivities. A table whose whole
// primary key is pinned by equalities to constants contributes one row,
// and those equalities no further factor.
func estimate(gdd *catalog.GDD, g *group, conj []sqlparser.Expr) float64 {
	type pin struct{ alias, col string }
	pinned := make(map[pin]bool)
	for _, c := range conj {
		if alias, col, ok := constEquality(c); ok {
			pinned[pin{alias, col}] = true
		}
	}
	rows := 1.0
	keyed := make(map[string]bool) // aliases pinned to one row
	for _, r := range g.refs {
		card := float64(unknownRows)
		def, err := gdd.Table(g.db, r.Name.Parts[1])
		if err == nil && def.Rows > 0 {
			card = float64(def.Rows)
		}
		if err == nil && keyPinned(def.Columns, func(col string) bool { return pinned[pin{r.Alias, col}] }) {
			keyed[r.Alias] = true
			card = 1
		}
		rows *= card
	}
	for _, c := range conj {
		if alias, _, ok := constEquality(c); ok {
			if !keyed[alias] {
				rows *= selEquality
			}
			continue
		}
		if constRange(c) {
			rows *= selRange
		} else {
			rows *= selOther
		}
	}
	return rows
}

// keyPinned reports whether cols declare a primary key and pinned holds
// for every column of it.
func keyPinned(cols []schema.Column, pinned func(col string) bool) bool {
	keys := 0
	for _, c := range cols {
		if c.Key {
			if !pinned(c.Name) {
				return false
			}
			keys++
		}
	}
	return keys > 0
}

// constEquality matches alias.col = constant, either way round.
func constEquality(e sqlparser.Expr) (alias, col string, ok bool) {
	b, isBin := e.(*sqlparser.BinaryExpr)
	if !isBin || b.Op != "=" {
		return "", "", false
	}
	for _, side := range [2][2]sqlparser.Expr{{b.L, b.R}, {b.R, b.L}} {
		if c, isCol := side[0].(sqlparser.ColRef); isCol && len(c.Parts) == 2 && isConst(side[1]) {
			return c.Parts[0], c.Parts[1], true
		}
	}
	return "", "", false
}

// constRange matches a comparison or BETWEEN of a column against
// constants.
func constRange(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "<", "<=", ">", ">=":
			_, l := x.L.(sqlparser.ColRef)
			_, r := x.R.(sqlparser.ColRef)
			return l && isConst(x.R) || r && isConst(x.L)
		}
	case *sqlparser.BetweenExpr:
		_, col := x.X.(sqlparser.ColRef)
		return col && !x.Not && isConst(x.Lo) && isConst(x.Hi)
	}
	return false
}

// isConst reports whether e references no column.
func isConst(e sqlparser.Expr) bool {
	cols := false
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
		if _, ok := x.(sqlparser.ColRef); ok {
			cols = true
		}
	})
	return !cols
}

// --- helpers ---

func groupByDatabase(from []sqlparser.TableRef) ([]*group, map[string]string, error) {
	byDB := make(map[string]*group)
	aliasDB := make(map[string]string)
	var order []*group
	for _, f := range from {
		if len(f.Name.Parts) < 2 {
			return nil, nil, fmt.Errorf("%w: unqualified table %s in global query", ErrUnsupported, f.Name)
		}
		db := f.Name.Parts[0]
		g, ok := byDB[db]
		if !ok {
			g = &group{db: db, aliases: make(map[string]bool)}
			byDB[db] = g
			order = append(order, g)
		}
		alias := f.Alias
		if alias == "" {
			alias = f.Name.Parts[1]
		}
		g.refs = append(g.refs, sqlparser.TableRef{Name: f.Name, Alias: alias})
		g.aliases[alias] = true
		aliasDB[alias] = db
	}
	return order, aliasDB, nil
}

func rewriteAll(cs []sqlparser.Expr, rw sqlparser.Rewriter) []sqlparser.Expr {
	var rewritten []sqlparser.Expr
	for _, c := range cs {
		rewritten = append(rewritten, rw.RewriteExpr(c))
	}
	return rewritten
}

func referencedDBs(e sqlparser.Expr, aliasDB map[string]string) map[string]bool {
	out := make(map[string]bool)
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) {
		if c, ok := x.(sqlparser.ColRef); ok && len(c.Parts) == 2 {
			if db, ok := aliasDB[c.Parts[0]]; ok {
				out[db] = true
			}
		}
	})
	return out
}

// databases returns the databases the FROM clauses of s name, in every
// SELECT block.
func databases(s sqlparser.Statement) map[string]bool {
	dbs := make(map[string]bool)
	sqlparser.Selects(s, func(sel *sqlparser.SelectStmt) {
		for _, f := range sel.From {
			if len(f.Name.Parts) >= 2 {
				dbs[f.Name.Parts[0]] = true
			}
		}
	})
	return dbs
}

// unionInOneDatabase refuses a UNION whose branches read several
// databases: decomposition groups only the first branch's FROM, so such a
// query would be shipped whole to one site that lacks the others' tables.
func unionInOneDatabase(sel *sqlparser.SelectStmt) error {
	if len(sel.Unions) > 0 && len(databases(sel)) > 1 {
		return fmt.Errorf("%w: UNION across databases", ErrUnsupported)
	}
	return nil
}

// stripDBPrefix removes "db." prefixes from all table references.
func stripDBPrefix(s sqlparser.Statement, db string) sqlparser.Statement {
	return sqlparser.RewriteStatement(s, sqlparser.Rewriter{
		Table: func(n sqlparser.ObjectName) sqlparser.ObjectName {
			if len(n.Parts) >= 2 && n.Parts[0] == db {
				return sqlparser.Name(n.Parts[1:]...)
			}
			return n
		},
	})
}

func columnType(gdd *catalog.GDD, g *group, alias, col string) (schema.Column, error) {
	for _, r := range g.refs {
		if r.Alias != alias {
			continue
		}
		def, err := gdd.Table(g.db, r.Name.Parts[1])
		if err != nil {
			return schema.Column{}, err
		}
		for _, c := range def.Columns {
			if c.Name == col {
				return c, nil
			}
		}
	}
	return schema.Column{}, fmt.Errorf("decompose: no column %s.%s in %s", alias, col, g.db)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func oneValue() sqlval.Value { return sqlval.Int(1) }
