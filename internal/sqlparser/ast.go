package sqlparser

import (
	"strings"

	"msql/internal/schema"
	"msql/internal/sqlval"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed SQL expression.
type Expr interface{ expr() }

// ObjectName is a possibly qualified object name such as table,
// db.table, or the MSQL semantic-variable paths used by LET. Parts may
// contain the '%' wildcard when the name is an MSQL multiple identifier.
type ObjectName struct {
	Parts []string
}

// Name builds an ObjectName from parts.
func Name(parts ...string) ObjectName { return ObjectName{Parts: parts} }

// String renders the dotted form.
func (n ObjectName) String() string { return strings.Join(n.Parts, ".") }

// Last returns the final (least qualified) component, or "".
func (n ObjectName) Last() string {
	if len(n.Parts) == 0 {
		return ""
	}
	return n.Parts[len(n.Parts)-1]
}

// IsMultiple reports whether any component contains the MSQL '%' wildcard.
func (n ObjectName) IsMultiple() bool {
	for _, p := range n.Parts {
		if strings.Contains(p, "%") {
			return true
		}
	}
	return false
}

// SelectItem is one projection in a SELECT list.
type SelectItem struct {
	Star      bool   // SELECT * or q.*
	Qualifier string // for q.*
	Expr      Expr   // nil when Star
	Alias     string // AS alias
}

// TableRef is one FROM-clause table with optional alias.
type TableRef struct {
	Name  ObjectName
	Alias string
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// UnionPart is one UNION [ALL] branch appended to a SELECT.
type UnionPart struct {
	All    bool
	Select *SelectStmt
}

// SelectStmt is a SELECT query. ORDER BY and LIMIT apply per branch; the
// union of branches is deduplicated unless every part is UNION ALL.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int // -1 when absent
	Unions   []UnionPart
}

// InsertStmt is INSERT INTO ... VALUES or INSERT INTO ... SELECT.
type InsertStmt struct {
	Table   ObjectName
	Columns []string
	Rows    [][]Expr    // literal rows, when Query is nil
	Query   *SelectStmt // INSERT ... SELECT
}

// Assign is one SET clause of an UPDATE.
type Assign struct {
	Column ColRef
	Expr   Expr
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table   ObjectName
	Assigns []Assign
	Where   Expr
}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table ObjectName
	Where Expr
}

// CreateTableStmt is CREATE TABLE, or CREATE TEMPORARY TABLE when
// Temporary is set: a table private to the creating session that lives
// until the session ends.
type CreateTableStmt struct {
	Table     ObjectName
	Columns   []schema.Column
	Temporary bool
}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Table    ObjectName
	IfExists bool
}

// CreateDatabaseStmt is CREATE DATABASE.
type CreateDatabaseStmt struct {
	Database string
}

// DropDatabaseStmt is DROP DATABASE.
type DropDatabaseStmt struct {
	Database string
}

// CreateViewStmt is CREATE VIEW name AS select.
type CreateViewStmt struct {
	View  ObjectName
	Query *SelectStmt
}

// DropViewStmt is DROP VIEW.
type DropViewStmt struct {
	View ObjectName
}

// ExplainStmt is EXPLAIN [ANALYZE] [FORMAT JSON] <stmt>: render the local
// plan for Target, executing it first when Analyze is set so the plan
// carries runtime statistics.
type ExplainStmt struct {
	Analyze bool
	JSON    bool
	Target  Statement
}

// BeginStmt, CommitStmt and RollbackStmt are local transaction control.
type BeginStmt struct{}

// CommitStmt commits the current local transaction.
type CommitStmt struct{}

// RollbackStmt rolls back the current local transaction.
type RollbackStmt struct{}

func (*SelectStmt) stmt()         {}
func (*InsertStmt) stmt()         {}
func (*UpdateStmt) stmt()         {}
func (*DeleteStmt) stmt()         {}
func (*CreateTableStmt) stmt()    {}
func (*DropTableStmt) stmt()      {}
func (*CreateDatabaseStmt) stmt() {}
func (*DropDatabaseStmt) stmt()   {}
func (*CreateViewStmt) stmt()     {}
func (*DropViewStmt) stmt()       {}
func (*ExplainStmt) stmt()        {}
func (*BeginStmt) stmt()          {}
func (*CommitStmt) stmt()         {}
func (*RollbackStmt) stmt()       {}

// Literal is a constant value.
type Literal struct {
	Val sqlval.Value
}

// ColRef is a possibly qualified column reference. Optional marks the MSQL
// '~' prefix: the column contributes NULLs where a database lacks it.
// Components may contain '%' when the reference is a multiple identifier.
type ColRef struct {
	Parts    []string
	Optional bool
}

// Name returns the dotted spelling without the '~' marker.
func (c ColRef) Name() string { return strings.Join(c.Parts, ".") }

// Last returns the final path component.
func (c ColRef) Last() string {
	if len(c.Parts) == 0 {
		return ""
	}
	return c.Parts[len(c.Parts)-1]
}

// IsMultiple reports whether the reference contains a '%' wildcard.
func (c ColRef) IsMultiple() bool {
	for _, p := range c.Parts {
		if strings.Contains(p, "%") {
			return true
		}
	}
	return false
}

// BinaryExpr applies Op ("+", "-", "*", "/", "=", "<>", "<", "<=", ">",
// ">=", "AND", "OR") to L and R.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies Op ("-" or "NOT") to X.
type UnaryExpr struct {
	Op string
	X  Expr
}

// FuncCall is an aggregate or scalar function call.
type FuncCall struct {
	Name     string // upper-cased
	Star     bool   // COUNT(*)
	Distinct bool   // COUNT(DISTINCT x)
	Args     []Expr
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct {
	Query *SelectStmt
}

// InExpr is X [NOT] IN (list) or X [NOT] IN (subquery).
type InExpr struct {
	X     Expr
	Not   bool
	List  []Expr
	Query *SelectStmt
}

// BetweenExpr is X [NOT] BETWEEN Lo AND Hi.
type BetweenExpr struct {
	X, Lo, Hi Expr
	Not       bool
}

// IsNullExpr is X IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// LikeExpr is X [NOT] LIKE pattern.
type LikeExpr struct {
	X, Pattern Expr
	Not        bool
}

func (*Literal) expr()      {}
func (ColRef) expr()        {}
func (*BinaryExpr) expr()   {}
func (*UnaryExpr) expr()    {}
func (*FuncCall) expr()     {}
func (*SubqueryExpr) expr() {}
func (*InExpr) expr()       {}
func (*BetweenExpr) expr()  {}
func (*IsNullExpr) expr()   {}
func (*LikeExpr) expr()     {}
