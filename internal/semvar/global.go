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

	// Column resolution. An INSERT's column list names the target's
	// columns as they are; only expressions are resolved.
	colAssign := make(map[string]sqlparser.Expr, sh.exprCols)
	for _, c := range sh.cols[:sh.exprCols] {
		repl, err := resolveGlobalColumn(varMaps, refs, sh, c)
		if err != nil {
			return nil, err
		}
		colAssign[colKey(c)] = repl
	}

	rw := sqlparser.Rewriter{
		Table: func(n sqlparser.ObjectName) sqlparser.ObjectName {
			if r, ok := refs[n.String()]; ok {
				return sqlparser.Name(r.db, r.table)
			}
			return n
		},
		Col: func(c sqlparser.ColRef) sqlparser.Expr {
			if e, ok := colAssign[colKey(c)]; ok {
				return e
			}
			c.Optional = false
			return c
		},
	}
	out := sqlparser.RewriteStatement(body, rw)
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

// resolveGlobalColumn maps one column spelling of a global query.
func resolveGlobalColumn(varMaps []map[string]bindTarget,
	refs map[string]*globalRef, sh *shape, c sqlparser.ColRef) (sqlparser.Expr, error) {

	nullLit := func() sqlparser.Expr { return &sqlparser.Literal{Val: sqlval.Null()} }
	resolveIn := func(r *globalRef, name string) []string {
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

	switch len(c.Parts) {
	case 1:
		name := c.Parts[0]
		type hit struct {
			r   *globalRef
			col string
		}
		var hits []hit
		for _, r := range refs {
			for _, col := range resolveIn(r, name) {
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
		if len(refs) == 1 {
			// Single-table global query: keep references unqualified so
			// the pushed-down local statement stays clean.
			return sqlparser.ColRef{Parts: []string{hits[0].col}}, nil
		}
		return sqlparser.ColRef{Parts: []string{hits[0].r.alias, hits[0].col}}, nil
	case 2:
		qual, name := c.Parts[0], c.Parts[1]
		r := findRef(refs, sh.aliases, qual)
		if r == nil {
			if c.Optional {
				return nullLit(), nil
			}
			return nil, fmt.Errorf("%w: qualifier %s", ErrUnresolved, qual)
		}
		matches := resolveIn(r, name)
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
		matches := resolveIn(r, name)
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
