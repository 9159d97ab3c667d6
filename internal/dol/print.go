package dol

import (
	"strconv"
	"strings"

	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// type name helpers shared with the parser.
const (
	kindInt    = sqlval.KindInt
	kindFloat  = sqlval.KindFloat
	kindString = sqlval.KindString
	kindBool   = sqlval.KindBool
)

func isType(name string, candidates ...string) bool {
	for _, c := range candidates {
		if strings.EqualFold(name, c) {
			return true
		}
	}
	return false
}

// Print renders a program in the paper's listing style. The output
// reparses to an equivalent program.
func Print(p *Program) string {
	var b strings.Builder
	b.WriteString("DOLBEGIN\n")
	for _, s := range p.Stmts {
		printStmt(&b, s, 0)
	}
	b.WriteString("DOLEND\n")
	return b.String()
}

func indent(b *strings.Builder, depth int) {
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
}

func printStmt(b *strings.Builder, s Stmt, depth int) {
	indent(b, depth)
	switch st := s.(type) {
	case *OpenStmt:
		b.WriteString("OPEN ")
		b.WriteString(st.Database)
		b.WriteString(" AT ")
		b.WriteString(st.Site)
		b.WriteString(" AS ")
		b.WriteString(st.Alias)
		b.WriteString(";\n")
	case *TaskStmt:
		b.WriteString("TASK ")
		b.WriteString(st.Name)
		if st.NoCommit {
			b.WriteString(" NOCOMMIT")
		}
		if len(st.After) > 0 {
			b.WriteString(" AFTER ")
			b.WriteString(strings.Join(st.After, " "))
		}
		b.WriteString(" FOR ")
		b.WriteString(st.Conn)
		b.WriteString("\n")
		indent(b, depth)
		b.WriteString("{ ")
		for i, q := range st.Body {
			if i > 0 {
				b.WriteString("; ")
			}
			b.WriteString(sqlparser.Deparse(q))
		}
		b.WriteString(" }\n")
		indent(b, depth)
		b.WriteString("ENDTASK;\n")
	case *ShipStmt:
		b.WriteString("SHIP ")
		b.WriteString(st.Task)
		b.WriteString(" TO ")
		b.WriteString(st.To)
		b.WriteString(" TABLE ")
		b.WriteString(st.Table)
		b.WriteString(" (")
		for i, c := range st.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
			b.WriteString(" ")
			b.WriteString(sqlparser.TypeName(c))
		}
		b.WriteString(");\n")
	case *IfStmt:
		b.WriteString("IF ")
		b.WriteString(printCond(st.Cond))
		b.WriteString(" THEN\n")
		indent(b, depth)
		b.WriteString("BEGIN\n")
		for _, inner := range st.Then {
			printStmt(b, inner, depth+1)
		}
		indent(b, depth)
		b.WriteString("END;\n")
		if len(st.Else) > 0 {
			indent(b, depth)
			b.WriteString("ELSE\n")
			indent(b, depth)
			b.WriteString("BEGIN\n")
			for _, inner := range st.Else {
				printStmt(b, inner, depth+1)
			}
			indent(b, depth)
			b.WriteString("END;\n")
		}
	case *CommitStmt:
		b.WriteString("COMMIT ")
		b.WriteString(strings.Join(st.Tasks, ", "))
		b.WriteString(";\n")
	case *AbortStmt:
		b.WriteString("ABORT ")
		b.WriteString(strings.Join(st.Tasks, ", "))
		b.WriteString(";\n")
	case *StatusStmt:
		b.WriteString("DOLSTATUS=")
		b.WriteString(strconv.Itoa(st.Code))
		b.WriteString(";\n")
	case *CloseStmt:
		b.WriteString("CLOSE ")
		b.WriteString(strings.Join(st.Aliases, " "))
		b.WriteString(";\n")
	}
}

func printCond(c Cond) string {
	switch x := c.(type) {
	case *StatusCond:
		return "(" + x.Task + "=" + x.Status.Letter() + ")"
	case *RowsCond:
		return "(" + x.Task + ">" + strconv.Itoa(x.MinRows) + ")"
	case *AndCond:
		return printCond(x.L) + " AND " + printCond(x.R)
	case *OrCond:
		return "(" + printCond(x.L) + " OR " + printCond(x.R) + ")"
	case *NotCond:
		return "NOT " + printCond(x.X)
	default:
		return "?"
	}
}
