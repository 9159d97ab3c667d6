package semvar

import (
	"fmt"
	"sort"
	"strings"

	"msql/internal/catalog"
	"msql/internal/msqlparser"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// globalRef is one resolved table reference of a global (cross-database)
// query.
type globalRef struct {
	alias string // effective alias in the rewritten query
	db    string
	table string
	entry int      // index into scope
	cols  []string // the table's column names, fetched once
}

// expandGlobal resolves a query whose table references name scope
// databases explicitly. The result is a single elementary query with
// database-qualified table names, ready for the decomposer.
func expandGlobal(gdd *catalog.GDD, scope []ScopeEntry, lets []msqlparser.LetBinding, body sqlparser.Statement, sh *shape) (*Elementary, error) {
	entryOf := make(map[string]int, len(scope)*2)
	varMaps := make([]map[string]bindTarget, len(scope))
	for i, e := range scope {
		entryOf[e.Database] = i
		entryOf[e.Name] = i
		varMaps[i] = bindingMap(lets, i)
	}

	// Resolve each distinct table spelling.
	refs := make(map[string]*globalRef)
	usedAlias := map[string]bool{}
	resolveTable := func(key, explicitAlias string) error {
		if ref, ok := refs[key]; ok {
			// References are keyed by spelling, so a second alias of the
			// same table would silently read as the first one.
			alias := explicitAlias
			if alias == "" {
				alias = ref.table
			}
			if alias != ref.alias {
				return fmt.Errorf("%w: table named twice in one global query (%s)", ErrAmbiguous, key)
			}
			return nil
		}
		var db string
		var entryIdx int
		name := key
		if i := strings.IndexByte(key, '.'); i >= 0 {
			if idx, ok := entryOf[key[:i]]; ok {
				entryIdx = idx
				db = scope[idx].Database
				name = key[i+1:]
			} else {
				return fmt.Errorf("%w: %s names an unknown database", ErrUnresolved, key)
			}
		} else {
			// Unprefixed: the table must live in exactly one scope database.
			var hits []int
			for i, e := range scope {
				if cands := matchTables(gdd, e.Database, name, varMaps[i]); len(cands) > 0 {
					hits = append(hits, i)
				}
			}
			if len(hits) == 0 {
				return fmt.Errorf("%w: no database in scope has table %s", ErrUnresolved, name)
			}
			if len(hits) > 1 {
				return fmt.Errorf("%w: table %s exists in several scope databases; qualify it", ErrAmbiguous, name)
			}
			entryIdx = hits[0]
			db = scope[entryIdx].Database
		}
		cands := matchTables(gdd, db, name, varMaps[entryIdx])
		if key == sh.defTarget {
			// A CREATE target: no dictionary entry is expected to exist.
			cands = []string{name}
		}
		if len(cands) == 0 {
			return fmt.Errorf("%w: no table matching %s in %s", ErrUnresolved, name, db)
		}
		if len(cands) > 1 {
			return fmt.Errorf("%w: pattern %s matches several tables in %s", ErrAmbiguous, name, db)
		}
		alias := explicitAlias
		if alias == "" {
			alias = cands[0]
		}
		if usedAlias[alias] {
			return fmt.Errorf("%w: alias %s used twice; alias your global FROM tables", ErrAmbiguous, alias)
		}
		usedAlias[alias] = true
		r := &globalRef{alias: alias, db: db, table: cands[0], entry: entryIdx}
		if def, err := gdd.Table(db, r.table); err == nil {
			r.cols = def.ColumnNames()
		}
		refs[key] = r
		return nil
	}

	// FROM clauses carry the aliases; resolve them first.
	for _, f := range sh.from {
		if err := resolveTable(f.key, f.alias); err != nil {
			return nil, err
		}
	}
	// DML targets without FROM entries.
	for _, t := range sh.tables {
		if _, ok := refs[t]; !ok {
			if err := resolveTable(t, ""); err != nil {
				return nil, err
			}
		}
	}

	// Column resolution, block by block: an unqualified column names a
	// table of its own SELECT block first, then of the blocks enclosing
	// it (a correlated reference); outside every block, the DML target.
	// A column none of those hold resolves against every table of the
	// query, then as a projection alias (resolveGlobalColumn).
	var colErr error
	whole := func(c sqlparser.ColRef) sqlparser.Expr {
		e, err := resolveGlobalColumn(varMaps, refs, sh, c)
		if err != nil {
			if colErr == nil {
				colErr = err
			}
			return c
		}
		return e
	}
	scoped := func(own []*globalRef, enclosing func(sqlparser.ColRef) sqlparser.Expr) func(sqlparser.ColRef) sqlparser.Expr {
		return func(c sqlparser.ColRef) sqlparser.Expr {
			if len(c.Parts) != 1 {
				return enclosing(c)
			}
			var hit *globalRef
			var col string
			for _, r := range own {
				for _, m := range columnsIn(varMaps, r, c.Parts[0]) {
					if hit != nil {
						if colErr == nil {
							colErr = fmt.Errorf("%w: column %s matches in several tables; qualify it", ErrAmbiguous, c.Parts[0])
						}
						return c
					}
					hit, col = r, m
				}
			}
			if hit == nil {
				return enclosing(c)
			}
			return qualify(refs, hit, col)
		}
	}
	top := whole
	if t, ok := sqlparser.Target(body); ok {
		top = scoped([]*globalRef{refs[t.String()]}, whole)
	}
	// enclosing maps each nested SELECT block to the block whose
	// expressions hold it (absent at the top level); a UNION branch
	// shares its first branch's. Blocks come outermost first, so the
	// innermost holder writes last.
	enclosing := map[*sqlparser.SelectStmt]*sqlparser.SelectStmt{}
	sqlparser.Selects(body, func(sel *sqlparser.SelectStmt) {
		for _, u := range sel.Unions {
			enclosing[u.Select] = enclosing[sel]
		}
		sqlparser.WalkExprs(sel, func(e sqlparser.Expr) {
			switch x := e.(type) {
			case *sqlparser.SubqueryExpr:
				enclosing[x.Query] = sel
			case *sqlparser.InExpr:
				if x.Query != nil {
					enclosing[x.Query] = sel
				}
			}
		})
	})
	blockCol := map[*sqlparser.SelectStmt]func(sqlparser.ColRef) sqlparser.Expr{nil: top}
	rw := sqlparser.Rewriter{
		Table: func(n sqlparser.ObjectName) sqlparser.ObjectName {
			if r, ok := refs[n.String()]; ok {
				return sqlparser.Name(r.db, r.table)
			}
			return n
		},
		Col: top,
		Block: func(sel *sqlparser.SelectStmt) func(sqlparser.ColRef) sqlparser.Expr {
			own := make([]*globalRef, len(sel.From))
			for i, f := range sel.From {
				own[i] = refs[f.Name.String()]
			}
			blockCol[sel] = scoped(own, blockCol[enclosing[sel]])
			return blockCol[sel]
		},
	}
	out := sqlparser.RewriteStatement(body, rw)
	if colErr != nil {
		return nil, colErr
	}
	// Ensure FROM aliases are present in every block so the decomposer
	// and local engines resolve qualifiers uniformly.
	byDBTable := make(map[string]string, len(refs))
	for _, r := range refs {
		byDBTable[r.db+"."+r.table] = r.alias
	}
	sqlparser.Selects(out, func(sel *sqlparser.SelectStmt) {
		for i := range sel.From {
			if a, ok := byDBTable[sel.From[i].Name.String()]; ok && sel.From[i].Alias == "" {
				sel.From[i].Alias = a
			}
		}
	})
	return &Elementary{Global: true, Stmt: out}, nil
}

// matchTables resolves a table spelling (pattern, LET variable or literal)
// within one database. Transformation variables never name tables.
func matchTables(gdd *catalog.GDD, db, name string, varMap map[string]bindTarget) []string {
	if target, ok := varMap[name]; ok {
		if target.expr != nil {
			return nil
		}
		name = target.name
	}
	if strings.Contains(name, "%") {
		m, err := gdd.TablesMatching(db, name)
		if err != nil {
			return nil
		}
		return m
	}
	if _, err := gdd.Table(db, name); err != nil {
		return nil
	}
	return []string{name}
}

// columnsIn lists the columns of r a column spelling (pattern, LET
// variable or literal) names.
func columnsIn(varMaps []map[string]bindTarget, r *globalRef, name string) []string {
	if target, ok := varMaps[r.entry][name]; ok {
		if target.expr != nil {
			// Transformations are a fan-out feature; global queries
			// must name concrete columns.
			return nil
		}
		name = target.name
	}
	var out []string
	for _, col := range r.cols {
		if catalog.MatchName(col, name) {
			out = append(out, col)
		}
	}
	sort.Strings(out)
	return out
}

// qualify spells column col of r: by its alias, or bare when r is the
// query's only table, so the pushed-down local statement stays clean.
func qualify(refs map[string]*globalRef, r *globalRef, col string) sqlparser.ColRef {
	if len(refs) == 1 {
		return sqlparser.ColRef{Parts: []string{col}}
	}
	return sqlparser.ColRef{Parts: []string{r.alias, col}}
}

// resolveGlobalColumn maps one column spelling of a global query against
// every table the query names.
func resolveGlobalColumn(varMaps []map[string]bindTarget,
	refs map[string]*globalRef, sh *shape, c sqlparser.ColRef) (sqlparser.Expr, error) {

	nullLit := func() sqlparser.Expr { return &sqlparser.Literal{Val: sqlval.Null()} }

	switch len(c.Parts) {
	case 1:
		name := c.Parts[0]
		type hit struct {
			r   *globalRef
			col string
		}
		var hits []hit
		for _, r := range refs {
			for _, col := range columnsIn(varMaps, r, name) {
				hits = append(hits, hit{r: r, col: col})
			}
		}
		if len(hits) == 0 {
			if sh.projAliases[name] {
				return sqlparser.ColRef{Parts: []string{name}}, nil
			}
			if c.Optional {
				return nullLit(), nil
			}
			return nil, fmt.Errorf("%w: column %s", ErrUnresolved, name)
		}
		if len(hits) > 1 {
			return nil, fmt.Errorf("%w: column %s matches in several tables; qualify it", ErrAmbiguous, name)
		}
		return qualify(refs, hits[0].r, hits[0].col), nil
	case 2:
		qual, name := c.Parts[0], c.Parts[1]
		r := findRef(refs, sh.aliases, qual)
		if r == nil {
			if c.Optional {
				return nullLit(), nil
			}
			return nil, fmt.Errorf("%w: qualifier %s", ErrUnresolved, qual)
		}
		matches := columnsIn(varMaps, r, name)
		if len(matches) == 0 {
			if c.Optional {
				return nullLit(), nil
			}
			return nil, fmt.Errorf("%w: column %s.%s", ErrUnresolved, qual, name)
		}
		if len(matches) > 1 {
			return nil, fmt.Errorf("%w: pattern %s.%s", ErrAmbiguous, qual, name)
		}
		return sqlparser.ColRef{Parts: []string{r.alias, matches[0]}}, nil
	default:
		// db.table.column
		qual := strings.Join(c.Parts[:len(c.Parts)-1], ".")
		name := c.Parts[len(c.Parts)-1]
		r := findRef(refs, sh.aliases, qual)
		if r == nil {
			if c.Optional {
				return nullLit(), nil
			}
			return nil, fmt.Errorf("%w: qualifier %s", ErrUnresolved, qual)
		}
		matches := columnsIn(varMaps, r, name)
		if len(matches) != 1 {
			if c.Optional && len(matches) == 0 {
				return nullLit(), nil
			}
			return nil, fmt.Errorf("%w: %s", ErrUnresolved, colKey(c))
		}
		return sqlparser.ColRef{Parts: []string{r.alias, matches[0]}}, nil
	}
}

// findRef locates the table reference a qualifier denotes: an alias, an
// original spelling, or a bare table name.
func findRef(refs map[string]*globalRef, aliases map[string]string, qual string) *globalRef {
	if orig, ok := aliases[qual]; ok {
		if r, ok := refs[orig]; ok {
			return r
		}
	}
	if r, ok := refs[qual]; ok {
		return r
	}
	for _, r := range refs {
		if r.alias == qual || r.table == qual {
			return r
		}
	}
	return nil
}
