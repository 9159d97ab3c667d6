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
		b.WriteString("CREATE ")
		if st.Temporary {
			b.WriteString("TEMPORARY ")
		}
		b.WriteString("TABLE ")
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
	for _, u := range s.Unions {
		b.WriteString(" UNION ")
		if u.All {
			b.WriteString("ALL ")
		}
		deparseSelect(b, u.Select)
	}
	// After the last branch: a union's ORDER BY and LIMIT are its own.
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
		// Operators associate to the left; comparisons do not chain and
		// take additive operands (a postfix predicate on the left).
		l, r := level(x), level(x)+1
		if l == levelCompare {
			l, r = levelPredicate, levelAdditive
		}
		return operand(x.L, l) + " " + x.Op + " " + operand(x.R, r)
	case *UnaryExpr:
		if x.Op == "NOT" {
			return "NOT (" + DeparseExpr(x.X) + ")"
		}
		s := operand(x.X, levelUnary)
		if strings.HasPrefix(s, "-") {
			s = "(" + s + ")" // "--" would open a comment
		}
		return x.Op + s
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
		not := notKeyword(x.Not)
		if x.Query != nil {
			var b strings.Builder
			deparseSelect(&b, x.Query)
			return operand(x.X, levelPredicate) + not + " IN (" + b.String() + ")"
		}
		var items []string
		for _, it := range x.List {
			items = append(items, DeparseExpr(it))
		}
		return operand(x.X, levelPredicate) + not + " IN (" + strings.Join(items, ", ") + ")"
	case *BetweenExpr:
		not := notKeyword(x.Not)
		return operand(x.X, levelPredicate) + not + " BETWEEN " + operand(x.Lo, levelAdditive) + " AND " + operand(x.Hi, levelAdditive)
	case *IsNullExpr:
		if x.Not {
			return operand(x.X, levelPredicate) + " IS NOT NULL"
		}
		return operand(x.X, levelPredicate) + " IS NULL"
	case *LikeExpr:
		not := notKeyword(x.Not)
		return operand(x.X, levelPredicate) + not + " LIKE " + operand(x.Pattern, levelAdditive)
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

// notKeyword is the " NOT" of a negated IN, BETWEEN or LIKE.
func notKeyword(not bool) string {
	if not {
		return " NOT"
	}
	return ""
}

// Binding levels of the expression grammar, loosest first: an operand
// printed where the grammar wants a tighter level gets parentheses.
const (
	levelOr = iota + 1
	levelAnd
	levelNot
	levelCompare // also IN, which ends a comparison operand
	levelPredicate
	levelAdditive
	levelMultiplicative
	levelUnary
	levelPrimary
)

// level is how tightly e binds.
func level(e Expr) int {
	switch x := e.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "OR":
			return levelOr
		case "AND":
			return levelAnd
		case "+", "-":
			return levelAdditive
		case "*", "/":
			return levelMultiplicative
		}
		return levelCompare
	case *UnaryExpr:
		if x.Op == "NOT" {
			return levelNot
		}
		return levelUnary
	case *InExpr:
		return levelCompare
	case *LikeExpr, *BetweenExpr, *IsNullExpr:
		return levelPredicate
	}
	return levelPrimary
}

// operand deparses e where the grammar expects a level of at least min.
func operand(e Expr, min int) string {
	if level(e) < min {
		return "(" + DeparseExpr(e) + ")"
	}
	return DeparseExpr(e)
}
