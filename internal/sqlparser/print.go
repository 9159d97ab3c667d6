package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"msql/internal/schema"
	"msql/internal/sqlval"
)

// Deparse renders a statement back to SQL text. The output reparses to an
// equivalent AST; the decomposer uses it to ship subqueries to LAMs.
func Deparse(s Statement) string {
	var b strings.Builder
	deparseStmt(&b, s)
	return b.String()
}

func deparseStmt(b *strings.Builder, s Statement) {
	switch st := s.(type) {
	case *SelectStmt:
		deparseSelect(b, st)
	case *InsertStmt:
		b.WriteString("INSERT INTO ")
		b.WriteString(st.Table.String())
		if len(st.Columns) > 0 {
			b.WriteString(" (")
			b.WriteString(strings.Join(st.Columns, ", "))
			b.WriteString(")")
		}
		if st.Query != nil {
			b.WriteString(" ")
			deparseSelect(b, st.Query)
			return
		}
		b.WriteString(" VALUES ")
		for i, row := range st.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("(")
			for j, e := range row {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(DeparseExpr(e))
			}
			b.WriteString(")")
		}
	case *UpdateStmt:
		b.WriteString("UPDATE ")
		b.WriteString(st.Table.String())
		b.WriteString(" SET ")
		for i, a := range st.Assigns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(deparseColRef(a.Column))
			b.WriteString(" = ")
			b.WriteString(DeparseExpr(a.Expr))
		}
		if st.Where != nil {
			b.WriteString(" WHERE ")
			b.WriteString(DeparseExpr(st.Where))
		}
	case *DeleteStmt:
		b.WriteString("DELETE FROM ")
		b.WriteString(st.Table.String())
		if st.Where != nil {
			b.WriteString(" WHERE ")
			b.WriteString(DeparseExpr(st.Where))
		}
	case *CreateTableStmt:
		b.WriteString("CREATE TABLE ")
		b.WriteString(st.Table.String())
		b.WriteString(" (")
		var keys []string
		for i, c := range st.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
			b.WriteString(" ")
			b.WriteString(TypeName(c))
			if c.Key {
				keys = append(keys, c.Name)
			}
		}
		if len(keys) > 0 {
			b.WriteString(", PRIMARY KEY (")
			b.WriteString(strings.Join(keys, ", "))
			b.WriteString(")")
		}
		b.WriteString(")")
	case *DropTableStmt:
		b.WriteString("DROP TABLE ")
		if st.IfExists {
			b.WriteString("IF EXISTS ")
		}
		b.WriteString(st.Table.String())
	case *CreateDatabaseStmt:
		b.WriteString("CREATE DATABASE ")
		b.WriteString(st.Database)
	case *DropDatabaseStmt:
		b.WriteString("DROP DATABASE ")
		b.WriteString(st.Database)
	case *CreateViewStmt:
		b.WriteString("CREATE VIEW ")
		b.WriteString(st.View.String())
		b.WriteString(" AS ")
		deparseSelect(b, st.Query)
	case *DropViewStmt:
		b.WriteString("DROP VIEW ")
		b.WriteString(st.View.String())
	case *ExplainStmt:
		b.WriteString("EXPLAIN ")
		if st.Analyze {
			b.WriteString("ANALYZE ")
		}
		if st.JSON {
			b.WriteString("FORMAT JSON ")
		}
		deparseStmt(b, st.Target)
	case *BeginStmt:
		b.WriteString("BEGIN")
	case *CommitStmt:
		b.WriteString("COMMIT")
	case *RollbackStmt:
		b.WriteString("ROLLBACK")
	default:
		fmt.Fprintf(b, "/* unknown statement %T */", s)
	}
}

// TypeName renders a column's declared type as CREATE TABLE spells it.
func TypeName(c schema.Column) string {
	switch c.Type {
	case sqlval.KindInt:
		return "INTEGER"
	case sqlval.KindFloat:
		return "FLOAT"
	case sqlval.KindString:
		if c.Width > 0 {
			return "CHAR(" + strconv.Itoa(c.Width) + ")"
		}
		return "CHAR"
	case sqlval.KindBool:
		return "BOOLEAN"
	default:
		return "CHAR"
	}
}

func deparseSelect(b *strings.Builder, s *SelectStmt) {
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case it.Star && it.Qualifier != "":
			b.WriteString(it.Qualifier)
			b.WriteString(".*")
		case it.Star:
			b.WriteString("*")
		default:
			b.WriteString(DeparseExpr(it.Expr))
			if it.Alias != "" {
				b.WriteString(" AS ")
				b.WriteString(it.Alias)
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, f := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name.String())
			if f.Alias != "" {
				b.WriteString(" ")
				b.WriteString(f.Alias)
			}
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(DeparseExpr(s.Where))
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(DeparseExpr(g))
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		b.WriteString(DeparseExpr(s.Having))
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(DeparseExpr(o.Expr))
			if o.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.Itoa(s.Limit))
	}
	for _, u := range s.Unions {
		b.WriteString(" UNION ")
		if u.All {
			b.WriteString("ALL ")
		}
		deparseSelect(b, u.Select)
	}
}

// DeparseExpr renders an expression back to SQL text.
func DeparseExpr(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Literal:
		return x.Val.SQL()
	case ColRef:
		return deparseColRef(x)
	case *BinaryExpr:
		l, r := DeparseExpr(x.L), DeparseExpr(x.R)
		if needsParens(x.L, x.Op) {
			l = "(" + l + ")"
		}
		if needsParens(x.R, x.Op) {
			r = "(" + r + ")"
		}
		return l + " " + x.Op + " " + r
	case *UnaryExpr:
		if x.Op == "NOT" {
			return "NOT (" + DeparseExpr(x.X) + ")"
		}
		return x.Op + DeparseExpr(x.X)
	case *FuncCall:
		if x.Star {
			return x.Name + "(*)"
		}
		var args []string
		for _, a := range x.Args {
			args = append(args, DeparseExpr(a))
		}
		d := ""
		if x.Distinct {
			d = "DISTINCT "
		}
		return x.Name + "(" + d + strings.Join(args, ", ") + ")"
	case *SubqueryExpr:
		var b strings.Builder
		deparseSelect(&b, x.Query)
		return "(" + b.String() + ")"
	case *InExpr:
		not := ""
		if x.Not {
			not = " NOT"
		}
		if x.Query != nil {
			var b strings.Builder
			deparseSelect(&b, x.Query)
			return DeparseExpr(x.X) + not + " IN (" + b.String() + ")"
		}
		var items []string
		for _, it := range x.List {
			items = append(items, DeparseExpr(it))
		}
		return DeparseExpr(x.X) + not + " IN (" + strings.Join(items, ", ") + ")"
	case *BetweenExpr:
		not := ""
		if x.Not {
			not = " NOT"
		}
		return DeparseExpr(x.X) + not + " BETWEEN " + DeparseExpr(x.Lo) + " AND " + DeparseExpr(x.Hi)
	case *IsNullExpr:
		if x.Not {
			return DeparseExpr(x.X) + " IS NOT NULL"
		}
		return DeparseExpr(x.X) + " IS NULL"
	case *LikeExpr:
		not := ""
		if x.Not {
			not = " NOT"
		}
		return DeparseExpr(x.X) + not + " LIKE " + DeparseExpr(x.Pattern)
	default:
		return fmt.Sprintf("/* unknown expr %T */", e)
	}
}

func deparseColRef(c ColRef) string {
	s := strings.Join(c.Parts, ".")
	if c.Optional {
		return "~" + s
	}
	return s
}

// precedence for parenthesization during deparse.
func prec(op string) int {
	switch op {
	case "OR":
		return 1
	case "AND":
		return 2
	case "=", "<>", "<", "<=", ">", ">=":
		return 3
	case "+", "-":
		return 4
	case "*", "/":
		return 5
	default:
		return 6
	}
}

func needsParens(e Expr, parentOp string) bool {
	b, ok := e.(*BinaryExpr)
	if !ok {
		return false
	}
	return prec(b.Op) < prec(parentOp)
}
