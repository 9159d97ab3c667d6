package sqlparser

// This file is the one traversal of a statement's tree. Every pass that
// asks which node contains which (the semantic-variable expander, the
// decomposer, the executor) calls these functions instead of recursing
// itself, so a new node kind is taught here once.

// WalkExprs calls fn for every expression in the statement, in
// pre-order, including those of every UNION branch and of nested
// subqueries at any depth.
func WalkExprs(s Statement, fn func(Expr)) { walkStmt(s, walker{expr: fn, deep: true}) }

// Selects calls fn on every SELECT block of the statement: the statement
// itself, an INSERT's or CREATE VIEW's query, every UNION branch, and
// every scalar or IN subquery at any depth, each block before the blocks
// nested in its expressions.
func Selects(s Statement, fn func(*SelectStmt)) {
	walkStmt(s, walker{block: fn, deep: true})
}

// WalkExpr calls fn on e and every expression nested in it, in
// pre-order, without leaving e's SELECT block: a scalar or IN subquery is
// visited itself, but its query is a block of its own (see Selects).
func WalkExpr(e Expr, fn func(Expr)) { walker{expr: fn}.walk(e) }

// Target returns the table or view a statement writes or defines: the
// INSERT, UPDATE or DELETE table, or the name a CREATE or DROP of a
// table or view names.
func Target(s Statement) (ObjectName, bool) {
	switch st := s.(type) {
	case *InsertStmt:
		return st.Table, true
	case *UpdateStmt:
		return st.Table, true
	case *DeleteStmt:
		return st.Table, true
	case *CreateTableStmt:
		return st.Table, true
	case *DropTableStmt:
		return st.Table, true
	case *CreateViewStmt:
		return st.View, true
	case *DropViewStmt:
		return st.View, true
	}
	return ObjectName{}, false
}

// Conjuncts splits e into the operands of its top-level ANDs, left to
// right. A nil condition has none.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// And joins cs with AND, left-deep: the inverse of Conjuncts. It is nil
// when cs is empty.
func And(cs []Expr) Expr {
	var out Expr
	for _, c := range cs {
		if out == nil {
			out = c
		} else {
			out = &BinaryExpr{Op: "AND", L: out, R: c}
		}
	}
	return out
}

// walker carries the two visits of a traversal; either may be nil. deep
// enters the query of a subquery expression as a block of its own.
type walker struct {
	block func(*SelectStmt)
	expr  func(Expr)
	deep  bool
}

func walkStmt(s Statement, w walker) {
	switch st := s.(type) {
	case *SelectStmt:
		w.sel(st)
	case *InsertStmt:
		for _, row := range st.Rows {
			for _, e := range row {
				w.walk(e)
			}
		}
		w.sel(st.Query)
	case *UpdateStmt:
		for _, a := range st.Assigns {
			w.walk(a.Column)
			w.walk(a.Expr)
		}
		w.walk(st.Where)
	case *DeleteStmt:
		w.walk(st.Where)
	case *CreateViewStmt:
		w.sel(st.Query)
	case *ExplainStmt:
		walkStmt(st.Target, w)
	}
}

func (w walker) sel(s *SelectStmt) {
	if s == nil {
		return
	}
	if w.block != nil {
		w.block(s)
	}
	for _, it := range s.Items {
		w.walk(it.Expr)
	}
	w.walk(s.Where)
	for _, g := range s.GroupBy {
		w.walk(g)
	}
	w.walk(s.Having)
	for _, o := range s.OrderBy {
		w.walk(o.Expr)
	}
	for _, u := range s.Unions {
		w.sel(u.Select)
	}
}

func (w walker) walk(e Expr) {
	if e == nil {
		return
	}
	if w.expr != nil {
		w.expr(e)
	}
	switch x := e.(type) {
	case *BinaryExpr:
		w.walk(x.L)
		w.walk(x.R)
	case *UnaryExpr:
		w.walk(x.X)
	case *FuncCall:
		for _, a := range x.Args {
			w.walk(a)
		}
	case *SubqueryExpr:
		if w.deep {
			w.sel(x.Query)
		}
	case *InExpr:
		w.walk(x.X)
		for _, a := range x.List {
			w.walk(a)
		}
		if w.deep {
			w.sel(x.Query)
		}
	case *BetweenExpr:
		w.walk(x.X)
		w.walk(x.Lo)
		w.walk(x.Hi)
	case *IsNullExpr:
		w.walk(x.X)
	case *LikeExpr:
		w.walk(x.X)
		w.walk(x.Pattern)
	}
}
