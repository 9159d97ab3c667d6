package sqlparser

import "msql/internal/schema"

// Rewriter transforms a statement bottom-up, producing a deep copy. The
// multiple-identifier substitution phase uses it to turn an MSQL query
// into fully qualified elementary queries: Table maps table names, Col
// maps column references (and may replace an optional column that a
// database lacks with a NULL literal).
type Rewriter struct {
	// Table maps a FROM/target table name. Nil leaves names unchanged.
	Table func(ObjectName) ObjectName
	// Col maps a column reference to a replacement expression. Nil leaves
	// references unchanged. The returned expression is used as-is.
	Col func(ColRef) Expr
	// Block, when set, is called on entering each SELECT block of the
	// original statement and returns the Col of that block's own
	// expressions, in place of Col.
	Block func(*SelectStmt) func(ColRef) Expr
}

func (rw Rewriter) table(n ObjectName) ObjectName {
	cp := ObjectName{Parts: append([]string(nil), n.Parts...)}
	if rw.Table == nil {
		return cp
	}
	return rw.Table(cp)
}

func (rw Rewriter) col(c ColRef) Expr {
	cp := ColRef{Parts: append([]string(nil), c.Parts...), Optional: c.Optional}
	if rw.Col == nil {
		return cp
	}
	return rw.Col(cp)
}

// RewriteStatement returns a transformed deep copy of s.
func RewriteStatement(s Statement, rw Rewriter) Statement {
	switch st := s.(type) {
	case *SelectStmt:
		return rw.rewriteSelect(st)
	case *InsertStmt:
		out := &InsertStmt{
			Table:   rw.table(st.Table),
			Columns: rw.rewriteColumnNames(st.Columns),
		}
		for _, row := range st.Rows {
			nr := make([]Expr, len(row))
			for i, e := range row {
				nr[i] = rw.rewriteExpr(e)
			}
			out.Rows = append(out.Rows, nr)
		}
		if st.Query != nil {
			out.Query = rw.rewriteSelect(st.Query)
		}
		return out
	case *UpdateStmt:
		out := &UpdateStmt{Table: rw.table(st.Table)}
		for _, a := range st.Assigns {
			na := Assign{Expr: rw.rewriteExpr(a.Expr)}
			switch c := rw.col(a.Column).(type) {
			case ColRef:
				na.Column = c
			default:
				// A SET target must remain a column; keep the original
				// spelling when the rewriter degrades it.
				na.Column = ColRef{Parts: append([]string(nil), a.Column.Parts...)}
			}
			out.Assigns = append(out.Assigns, na)
		}
		out.Where = rw.rewriteExpr(st.Where)
		return out
	case *DeleteStmt:
		return &DeleteStmt{Table: rw.table(st.Table), Where: rw.rewriteExpr(st.Where)}
	case *CreateTableStmt:
		return &CreateTableStmt{Table: rw.table(st.Table), Columns: append([]schema.Column(nil), st.Columns...), Temporary: st.Temporary}
	case *DropTableStmt:
		return &DropTableStmt{Table: rw.table(st.Table), IfExists: st.IfExists}
	case *CreateViewStmt:
		return &CreateViewStmt{View: rw.table(st.View), Query: rw.rewriteSelect(st.Query)}
	case *DropViewStmt:
		return &DropViewStmt{View: rw.table(st.View)}
	case *CreateDatabaseStmt:
		cp := *st
		return &cp
	case *DropDatabaseStmt:
		cp := *st
		return &cp
	case *BeginStmt:
		return &BeginStmt{}
	case *CommitStmt:
		return &CommitStmt{}
	case *RollbackStmt:
		return &RollbackStmt{}
	default:
		return s
	}
}

// rewriteColumnNames maps bare INSERT column-name lists through the column
// rewriter.
func (rw Rewriter) rewriteColumnNames(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		if c, ok := rw.col(ColRef{Parts: []string{n}}).(ColRef); ok {
			out[i] = c.Last()
		} else {
			out[i] = n
		}
	}
	return out
}

func (rw Rewriter) rewriteSelect(s *SelectStmt) *SelectStmt {
	if s == nil {
		return nil
	}
	if rw.Block != nil {
		rw.Col = rw.Block(s)
	}
	out := &SelectStmt{Distinct: s.Distinct, Limit: s.Limit}
	for _, it := range s.Items {
		ni := SelectItem{Star: it.Star, Qualifier: it.Qualifier, Alias: it.Alias}
		if it.Expr != nil {
			ni.Expr = rw.rewriteExpr(it.Expr)
		}
		out.Items = append(out.Items, ni)
	}
	for _, f := range s.From {
		out.From = append(out.From, TableRef{Name: rw.table(f.Name), Alias: f.Alias})
	}
	out.Where = rw.rewriteExpr(s.Where)
	for _, g := range s.GroupBy {
		out.GroupBy = append(out.GroupBy, rw.rewriteExpr(g))
	}
	out.Having = rw.rewriteExpr(s.Having)
	for _, o := range s.OrderBy {
		out.OrderBy = append(out.OrderBy, OrderItem{Expr: rw.rewriteExpr(o.Expr), Desc: o.Desc})
	}
	for _, u := range s.Unions {
		out.Unions = append(out.Unions, UnionPart{All: u.All, Select: rw.rewriteSelect(u.Select)})
	}
	return out
}

func (rw Rewriter) rewriteExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Literal:
		cp := *x
		return &cp
	case ColRef:
		return rw.col(x)
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, L: rw.rewriteExpr(x.L), R: rw.rewriteExpr(x.R)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, X: rw.rewriteExpr(x.X)}
	case *FuncCall:
		out := &FuncCall{Name: x.Name, Star: x.Star, Distinct: x.Distinct}
		for _, a := range x.Args {
			out.Args = append(out.Args, rw.rewriteExpr(a))
		}
		return out
	case *SubqueryExpr:
		return &SubqueryExpr{Query: rw.rewriteSelect(x.Query)}
	case *InExpr:
		out := &InExpr{X: rw.rewriteExpr(x.X), Not: x.Not}
		for _, a := range x.List {
			out.List = append(out.List, rw.rewriteExpr(a))
		}
		if x.Query != nil {
			out.Query = rw.rewriteSelect(x.Query)
		}
		return out
	case *BetweenExpr:
		return &BetweenExpr{X: rw.rewriteExpr(x.X), Lo: rw.rewriteExpr(x.Lo), Hi: rw.rewriteExpr(x.Hi), Not: x.Not}
	case *IsNullExpr:
		return &IsNullExpr{X: rw.rewriteExpr(x.X), Not: x.Not}
	case *LikeExpr:
		return &LikeExpr{X: rw.rewriteExpr(x.X), Pattern: rw.rewriteExpr(x.Pattern), Not: x.Not}
	default:
		return e
	}
}

// RewriteSelect applies the rewriter to a SELECT, returning a deep copy.
func (rw Rewriter) RewriteSelect(s *SelectStmt) *SelectStmt { return rw.rewriteSelect(s) }

// RewriteExpr applies the rewriter to an expression, returning a deep
// copy.
func (rw Rewriter) RewriteExpr(e Expr) Expr { return rw.rewriteExpr(e) }

// CloneStatement returns a deep copy of s.
func CloneStatement(s Statement) Statement { return RewriteStatement(s, Rewriter{}) }
