// Package semvar implements the first two phases of the paper's MSQL
// query processing pipeline (§4.3): multiple identifier substitution and
// disambiguation.
//
// Given the current USE scope, the LET bindings and a query body, Expand
// generates all possible substitutions of multiple identifiers ('%'
// patterns, LET semantic variables, '~' optional columns) against the
// Global Data Dictionary, and discards non-pertinent elementary queries —
// those for which some required object does not exist in a database.
//
// Two query shapes come out:
//
//   - fan-out queries (the common case): no table reference names another
//     scope database explicitly, so each scope database yields one (or,
//     with genuinely ambiguous patterns, several) local elementary query;
//   - global queries: at least one table is database-qualified, producing
//     a single elementary query that may join tables of several databases
//     and is later split by the decomposer.
package semvar

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"msql/internal/catalog"
	"msql/internal/msqlparser"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// Expansion errors.
var (
	ErrBadBinding = errors.New("semvar: malformed LET binding")
	ErrNoQueries  = errors.New("semvar: query is not pertinent to any database in scope")
	ErrAmbiguous  = errors.New("semvar: ambiguous reference in global query")
	ErrUnresolved = errors.New("semvar: unresolved reference in global query")
)

// ScopeEntry is one database of the current USE scope.
type ScopeEntry struct {
	Database string
	Name     string // alias when given, else the database name
	Vital    bool
}

// ScopeFromUse converts a parsed USE statement into scope entries.
func ScopeFromUse(u *msqlparser.UseStmt) []ScopeEntry {
	out := make([]ScopeEntry, len(u.Entries))
	for i, e := range u.Entries {
		out[i] = ScopeEntry{Database: e.Database, Name: e.Name(), Vital: e.Vital}
	}
	return out
}

// Elementary is one fully qualified elementary query.
type Elementary struct {
	// Entry is the scope database the query runs against (fan-out mode).
	Entry ScopeEntry
	// Global marks a cross-database query for the decomposer; Entry is
	// then meaningless.
	Global bool
	// Stmt is the substituted statement. In global mode all table names
	// are database-qualified.
	Stmt sqlparser.Statement
}

// Skip records why a scope database produced no elementary query.
type Skip struct {
	Entry  ScopeEntry
	Reason string
}

// Result is the outcome of expansion.
type Result struct {
	Queries []Elementary
	Skipped []Skip
}

// Expand runs multiple identifier substitution and disambiguation.
func Expand(gdd *catalog.GDD, scope []ScopeEntry, lets []msqlparser.LetBinding, body sqlparser.Statement) (*Result, error) {
	if len(scope) == 0 {
		return nil, fmt.Errorf("semvar: empty scope — issue USE first")
	}
	if err := validateBindings(scope, lets); err != nil {
		return nil, err
	}
	sh := shapeOf(body)
	if isGlobal(sh.tables, scope) {
		el, err := expandGlobal(gdd, scope, lets, body, sh)
		if err != nil {
			return nil, err
		}
		return &Result{Queries: []Elementary{*el}}, nil
	}
	res := &Result{}
	for i, entry := range scope {
		ex := &entryExpander{
			gdd:    gdd,
			entry:  entry,
			varMap: bindingMap(lets, i),
			body:   body,
			shape:  sh,
		}
		queries, reason := ex.expand()
		if reason != "" {
			res.Skipped = append(res.Skipped, Skip{Entry: entry, Reason: reason})
			continue
		}
		res.Queries = append(res.Queries, queries...)
	}
	if len(res.Queries) == 0 {
		reasons := make([]string, 0, len(res.Skipped))
		for _, s := range res.Skipped {
			reasons = append(reasons, s.Entry.Name+": "+s.Reason)
		}
		return nil, fmt.Errorf("%w (%s)", ErrNoQueries, strings.Join(reasons, "; "))
	}
	return res, nil
}

func validateBindings(scope []ScopeEntry, lets []msqlparser.LetBinding) error {
	for _, b := range lets {
		if len(b.Var) == 0 {
			return fmt.Errorf("%w: empty variable path", ErrBadBinding)
		}
		if len(b.Designators) > len(scope) {
			return fmt.Errorf("%w: %s has %d designators for %d databases in scope",
				ErrBadBinding, strings.Join(b.Var, "."), len(b.Designators), len(scope))
		}
		for _, d := range b.Designators {
			if len(d.Parts) != len(b.Var) {
				return fmt.Errorf("%w: designator %s does not match variable %s",
					ErrBadBinding, strings.Join(d.Names(), "."), strings.Join(b.Var, "."))
			}
			if len(d.Parts) > 0 && d.Parts[0].IsExpr() {
				return fmt.Errorf("%w: a transformation cannot designate a table (%s)",
					ErrBadBinding, strings.Join(b.Var, "."))
			}
		}
	}
	return nil
}

// bindTarget is what a semantic-variable component resolves to in one
// database: a concrete object name, or a transformation expression over
// the database's local columns.
type bindTarget struct {
	name string
	expr sqlparser.Expr
}

// bindingMap builds the component→target map for scope position i.
// Component 0 of each variable is a table name; the rest are columns or
// transformations.
func bindingMap(lets []msqlparser.LetBinding, i int) map[string]bindTarget {
	var m map[string]bindTarget
	for _, b := range lets {
		if i >= len(b.Designators) {
			continue
		}
		if m == nil {
			m = make(map[string]bindTarget)
		}
		for j, comp := range b.Var {
			part := b.Designators[i].Parts[j]
			if part.IsExpr() {
				m[comp] = bindTarget{expr: part.Expr}
			} else {
				m[comp] = bindTarget{name: part.Name}
			}
		}
	}
	return m
}

// shape is what expansion reads off a statement, gathered in one pass
// and shared by the global expander and every scope entry.
type shape struct {
	// tables holds the distinct table spellings, first appearance first:
	// the statement's target, then the FROM names of every SELECT block.
	tables []string
	// from holds the FROM references of every block.
	from []fromRef
	// aliases maps a FROM alias to its table spelling.
	aliases map[string]string
	// defTarget is the table a CREATE TABLE or VIEW defines rather than
	// reads: it needs no GDD entry yet.
	defTarget string
	// projAliases holds the output aliases usable in ORDER BY.
	projAliases map[string]bool
	// cols holds the distinct column spellings of every expression, then
	// those only an INSERT's column list names.
	cols []sqlparser.ColRef
}

// fromRef is one FROM table reference: its dotted spelling and alias.
type fromRef struct{ key, alias string }

func shapeOf(s sqlparser.Statement) *shape {
	sh := &shape{}
	addTable := func(n sqlparser.ObjectName) string {
		key := n.String()
		if !slices.Contains(sh.tables, key) {
			sh.tables = append(sh.tables, key)
		}
		return key
	}
	if t, ok := sqlparser.Target(s); ok {
		key := addTable(t)
		switch s.(type) {
		case *sqlparser.CreateTableStmt, *sqlparser.CreateViewStmt:
			sh.defTarget = key
		}
	}
	sqlparser.Selects(s, func(sel *sqlparser.SelectStmt) {
		for _, f := range sel.From {
			key := addTable(f.Name)
			sh.from = append(sh.from, fromRef{key: key, alias: f.Alias})
			if f.Alias != "" {
				if sh.aliases == nil {
					sh.aliases = make(map[string]string)
				}
				sh.aliases[f.Alias] = key
			}
		}
	})
	if sel, ok := s.(*sqlparser.SelectStmt); ok {
		for _, it := range sel.Items {
			if it.Alias != "" {
				if sh.projAliases == nil {
					sh.projAliases = make(map[string]bool)
				}
				sh.projAliases[it.Alias] = true
			}
		}
	}
	addCol := func(c sqlparser.ColRef) {
		for _, seen := range sh.cols {
			if seen.Optional == c.Optional && slices.Equal(seen.Parts, c.Parts) {
				return
			}
		}
		sh.cols = append(sh.cols, c)
	}
	sqlparser.WalkExprs(s, func(e sqlparser.Expr) {
		if c, ok := e.(sqlparser.ColRef); ok {
			addCol(c)
		}
	})
	if ins, ok := s.(*sqlparser.InsertStmt); ok {
		for _, n := range ins.Columns {
			addCol(sqlparser.ColRef{Parts: []string{n}})
		}
	}
	return sh
}

// IsGlobalQuery reports whether a statement explicitly references scope
// databases in its table names, making it a cross-database (global)
// query rather than a fan-out multiple query. The executor uses this to
// route statements: global ones form their own synchronization unit.
func IsGlobalQuery(stmt sqlparser.Statement, scope []ScopeEntry) bool {
	return isGlobal(shapeOf(stmt).tables, scope)
}

// isGlobal reports whether any table reference carries an explicit scope
// database (or alias) prefix, which makes the query a cross-database join
// handled by the decomposer.
func isGlobal(tables []string, scope []ScopeEntry) bool {
	names := make(map[string]bool, len(scope)*2)
	for _, e := range scope {
		names[e.Database] = true
		names[e.Name] = true
	}
	for _, t := range tables {
		if i := strings.IndexByte(t, '.'); i >= 0 && names[t[:i]] {
			return true
		}
	}
	return false
}

// entryExpander resolves one scope database in fan-out mode.
type entryExpander struct {
	gdd    *catalog.GDD
	entry  ScopeEntry
	varMap map[string]bindTarget
	body   sqlparser.Statement
	shape  *shape
}

// expand returns the elementary queries for this database, or a skip
// reason when the query is not pertinent here.
func (ex *entryExpander) expand() ([]Elementary, string) {
	tableTexts := ex.shape.tables

	// Resolve candidates per table spelling.
	candidates := make(map[string][]string, len(tableTexts))
	for _, text := range tableTexts {
		cands, reason := ex.tableCandidates(text)
		if reason != "" {
			return nil, reason
		}
		candidates[text] = cands
	}

	// Enumerate table choice combinations.
	var results []Elementary
	choice := make(map[string]string, len(tableTexts))
	var rec func(i int) string
	rec = func(i int) string {
		if i == len(tableTexts) {
			els, reason := ex.expandColumns(choice)
			if reason != "" {
				return reason
			}
			results = append(results, els...)
			return ""
		}
		text := tableTexts[i]
		var lastReason string
		for _, c := range candidates[text] {
			choice[text] = c
			if r := rec(i + 1); r != "" {
				lastReason = r
			}
		}
		delete(choice, text)
		return lastReason
	}
	reason := rec(0)
	if len(results) == 0 {
		if reason == "" {
			reason = "no valid substitution"
		}
		return nil, reason
	}
	return results, ""
}

// tableCandidates resolves a table spelling to concrete table names in
// this database.
func (ex *entryExpander) tableCandidates(text string) ([]string, string) {
	db := ex.entry.Database
	// Strip a redundant own-database prefix (db.table in fan-out mode can
	// only refer to this entry, or the query would have been global).
	name := text
	if i := strings.IndexByte(text, '.'); i >= 0 {
		prefix := text[:i]
		if prefix == db || prefix == ex.entry.Name {
			name = text[i+1:]
		}
	}
	if def := ex.shape.defTarget; def != "" && (def == text || def == name) {
		// A CREATE target: no dictionary entry is expected to exist.
		return []string{name}, ""
	}
	if target, ok := ex.varMap[name]; ok {
		if target.expr != nil {
			return nil, fmt.Sprintf("transformation variable %s cannot name a table", name)
		}
		if _, err := ex.gdd.Table(db, target.name); err != nil {
			return nil, fmt.Sprintf("LET designator %s not in %s", target.name, db)
		}
		return []string{target.name}, ""
	}
	if strings.Contains(name, "%") {
		matches, err := ex.gdd.TablesMatching(db, name)
		if err != nil || len(matches) == 0 {
			return nil, fmt.Sprintf("no table matching %s in %s", name, db)
		}
		return matches, ""
	}
	if _, err := ex.gdd.Table(db, name); err != nil {
		return nil, fmt.Sprintf("no table %s in %s", name, db)
	}
	return []string{name}, ""
}

// colKey identifies a column reference occurrence class for consistent
// substitution: same spelling → same replacement.
func colKey(c sqlparser.ColRef) string {
	k := strings.Join(c.Parts, ".")
	if c.Optional {
		return "~" + k
	}
	return k
}

// expandColumns resolves every column reference under a fixed table
// choice, enumerating combinations for genuinely ambiguous patterns.
func (ex *entryExpander) expandColumns(tableChoice map[string]string) ([]Elementary, string) {
	db := ex.entry.Database

	// Column set of all chosen tables, with table attribution.
	chosen := make([]string, 0, len(tableChoice))
	for _, c := range tableChoice {
		chosen = append(chosen, c)
	}
	sort.Strings(chosen)
	colsOf := func(table string) []string {
		def, err := ex.gdd.Table(db, table)
		if err != nil {
			return nil
		}
		return def.ColumnNames()
	}

	// Resolve each column spelling to candidate replacement expressions.
	type option struct {
		key   string
		exprs []sqlparser.Expr
	}
	var opts []option
	for _, ref := range ex.shape.cols {
		exprs, reason := ex.columnOptions(ref, tableChoice, chosen, colsOf)
		if reason != "" {
			return nil, reason
		}
		opts = append(opts, option{key: colKey(ref), exprs: exprs})
	}

	// Enumerate combinations of column choices and rewrite.
	var out []Elementary
	assign := make(map[string]sqlparser.Expr, len(opts))
	var rec func(i int)
	rec = func(i int) {
		if i == len(opts) {
			out = append(out, Elementary{Entry: ex.entry, Stmt: ex.rewrite(tableChoice, assign)})
			return
		}
		for _, e := range opts[i].exprs {
			assign[opts[i].key] = e
			rec(i + 1)
		}
		delete(assign, opts[i].key)
	}
	rec(0)
	return out, ""
}

// columnOptions resolves one column spelling to its candidate
// replacements for this database.
func (ex *entryExpander) columnOptions(ref sqlparser.ColRef, tableChoice map[string]string,
	chosen []string, colsOf func(string) []string) ([]sqlparser.Expr, string) {

	nullExpr := func() sqlparser.Expr { return &sqlparser.Literal{Val: sqlval.Null()} }
	plain := func(parts ...string) sqlparser.Expr { return sqlparser.ColRef{Parts: parts} }

	switch len(ref.Parts) {
	case 1:
		name := ref.Parts[0]
		if target, ok := ex.varMap[name]; ok {
			if target.expr != nil {
				// Dynamic transformation: substitute the expression, as a
				// deep copy so later rewrites cannot alias AST nodes.
				return []sqlparser.Expr{sqlparser.Rewriter{}.RewriteExpr(target.expr)}, ""
			}
			for _, t := range chosen {
				for _, c := range colsOf(t) {
					if c == target.name {
						return []sqlparser.Expr{plain(target.name)}, ""
					}
				}
			}
			// The variable may be a table component used as a column — or
			// the designated column is simply absent here.
			if ref.Optional {
				return []sqlparser.Expr{nullExpr()}, ""
			}
			return nil, fmt.Sprintf("LET column %s not in chosen tables of %s", target.name, ex.entry.Database)
		}
		if strings.Contains(name, "%") {
			var matches []string
			mseen := map[string]bool{}
			for _, t := range chosen {
				for _, c := range colsOf(t) {
					if catalog.MatchName(c, name) && !mseen[c] {
						mseen[c] = true
						matches = append(matches, c)
					}
				}
			}
			sort.Strings(matches)
			if len(matches) == 0 {
				if ref.Optional {
					return []sqlparser.Expr{nullExpr()}, ""
				}
				return nil, fmt.Sprintf("no column matching %s in %s", name, ex.entry.Database)
			}
			exprs := make([]sqlparser.Expr, len(matches))
			for i, m := range matches {
				exprs[i] = plain(m)
			}
			return exprs, ""
		}
		// Plain name: a real column, a projection alias, or missing.
		for _, t := range chosen {
			for _, c := range colsOf(t) {
				if c == name {
					return []sqlparser.Expr{plain(name)}, ""
				}
			}
		}
		if ex.shape.projAliases[name] {
			return []sqlparser.Expr{plain(name)}, ""
		}
		if ref.Optional {
			return []sqlparser.Expr{nullExpr()}, ""
		}
		return nil, fmt.Sprintf("no column %s in %s", name, ex.entry.Database)
	case 2:
		qual, name := ref.Parts[0], ref.Parts[1]
		// Resolve the qualifier: FROM alias, semantic variable, pattern or
		// literal table spelling.
		var table string
		var keepQual string
		if orig, ok := ex.shape.aliases[qual]; ok {
			table = tableChoice[orig]
			keepQual = qual
		} else {
			cands, reason := ex.tableCandidates(qual)
			if reason != "" {
				if ref.Optional {
					return []sqlparser.Expr{nullExpr()}, ""
				}
				return nil, reason
			}
			// Prefer the chosen table for this spelling when it was also a
			// FROM reference, else the unique candidate.
			if t, ok := tableChoice[qual]; ok {
				table = t
			} else if len(cands) == 1 {
				table = cands[0]
			} else {
				return nil, fmt.Sprintf("ambiguous qualifier %s in %s", qual, ex.entry.Database)
			}
			keepQual = table
		}
		resolve := func(colName string) ([]string, bool) {
			if target, ok := ex.varMap[colName]; ok {
				if target.expr != nil {
					// A transformation variable cannot carry a qualifier:
					// its expression already names local columns.
					return nil, false
				}
				colName = target.name
			}
			if strings.Contains(colName, "%") {
				var matches []string
				for _, c := range colsOf(table) {
					if catalog.MatchName(c, colName) {
						matches = append(matches, c)
					}
				}
				sort.Strings(matches)
				return matches, len(matches) > 0
			}
			for _, c := range colsOf(table) {
				if c == colName {
					return []string{colName}, true
				}
			}
			return nil, false
		}
		matches, ok := resolve(name)
		if !ok {
			if ref.Optional {
				return []sqlparser.Expr{nullExpr()}, ""
			}
			return nil, fmt.Sprintf("no column %s.%s in %s", qual, name, ex.entry.Database)
		}
		exprs := make([]sqlparser.Expr, len(matches))
		for i, m := range matches {
			exprs[i] = plain(keepQual, m)
		}
		return exprs, ""
	default:
		// db.table.column with this entry's prefix: strip and retry.
		if ref.Parts[0] == ex.entry.Database || ref.Parts[0] == ex.entry.Name {
			return ex.columnOptions(sqlparser.ColRef{Parts: ref.Parts[1:], Optional: ref.Optional},
				tableChoice, chosen, colsOf)
		}
		return nil, fmt.Sprintf("reference %s names a database outside this query's span", colKey(ref))
	}
}

// rewrite applies the chosen substitutions to the body.
func (ex *entryExpander) rewrite(tableChoice map[string]string, colAssign map[string]sqlparser.Expr) sqlparser.Statement {
	rw := sqlparser.Rewriter{
		Table: func(n sqlparser.ObjectName) sqlparser.ObjectName {
			if c, ok := tableChoice[n.String()]; ok {
				return sqlparser.Name(c)
			}
			// Own-db prefixed spelling.
			if len(n.Parts) >= 2 && (n.Parts[0] == ex.entry.Database || n.Parts[0] == ex.entry.Name) {
				if c, ok := tableChoice[strings.Join(n.Parts[1:], ".")]; ok {
					return sqlparser.Name(c)
				}
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
	return sqlparser.RewriteStatement(ex.body, rw)
}
