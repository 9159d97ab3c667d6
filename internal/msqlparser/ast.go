// Package msqlparser parses the MSQL language of the paper: the original
// multidatabase constructs (USE scopes, LET semantic variables, multiple
// queries with '%' identifiers and '~' optional columns) plus the
// extensions the paper proposes — VITAL designators, COMP compensation
// clauses, multitransactions with acceptable termination states, and the
// INCORPORATE/IMPORT dictionary statements. Embedded query bodies are
// delegated to internal/sqlparser.
package msqlparser

import (
	"strings"

	"msql/internal/sqlparser"
)

// Stmt is any top-level MSQL statement.
type Stmt interface{ msqlStmt() }

// UseEntry is one scope member of a USE statement.
type UseEntry struct {
	Database string
	Alias    string // optional; set via the parenthesized form
	Vital    bool
}

// Name returns the name the entry is referred to by: its alias when
// present, else the database name.
func (e UseEntry) Name() string {
	if e.Alias != "" {
		return e.Alias
	}
	return e.Database
}

// UseStmt sets the current query scope:
//
//	USE [CURRENT] [(] db [alias)] [VITAL] ...
type UseStmt struct {
	Current bool // USE CURRENT adds to the existing scope
	Entries []UseEntry
}

// VitalSet returns the names (alias or database) designated VITAL.
func (u *UseStmt) VitalSet() []string {
	var out []string
	for _, e := range u.Entries {
		if e.Vital {
			out = append(out, e.Name())
		}
	}
	return out
}

// DesignatorPart is one component of a LET designator path: a plain
// object name, or a parenthesized transformation expression over the
// database's local columns — MSQL's dynamic transformation of attributes'
// values (§2):
//
//	LET car.usd BE cars.(rate * 0.85) vehicle.(vrate)
type DesignatorPart struct {
	Name string
	Expr sqlparser.Expr // set when the part is a transformation
}

// IsExpr reports whether the part is a transformation expression.
func (p DesignatorPart) IsExpr() bool { return p.Expr != nil }

// Designator is one per-database designator path of a LET binding.
type Designator struct {
	Parts []DesignatorPart
}

// Names returns the plain spelling of the path; expression parts render
// as their SQL text.
func (d Designator) Names() []string {
	out := make([]string, len(d.Parts))
	for i, p := range d.Parts {
		if p.IsExpr() {
			out[i] = "(" + sqlparser.DeparseExpr(p.Expr) + ")"
		} else {
			out[i] = p.Name
		}
	}
	return out
}

// LetBinding binds one semantic variable path to designators, one per
// database in scope order:
//
//	LET car.type.status BE cars.cartype.carst vehicle.vty.vstat
type LetBinding struct {
	Var         []string
	Designators []Designator
}

// LetStmt declares explicit semantic variables.
type LetStmt struct {
	Bindings []LetBinding
}

// CompClause is one compensating subquery attached to a manipulation
// statement:
//
//	COMP <database or alias> <compensating subquery>
type CompClause struct {
	Database string
	Body     sqlparser.Statement
}

// QueryStmt is one (possibly multiple) MSQL manipulation or definition
// statement with optional compensation clauses.
type QueryStmt struct {
	Body  sqlparser.Statement
	Comps []CompClause
}

// ExplainStmt shows (EXPLAIN) or executes and profiles (EXPLAIN
// ANALYZE) the federation plan of a retrieval query or of an UPDATE or
// DELETE: the decomposition into per-site tasks, the ships into the
// coordinator, and — under ANALYZE — each site's annotated local plan
// tree. EXPLAIN ANALYZE of a write really writes, as a unit of its own:
//
//	EXPLAIN [ANALYZE] [FORMAT JSON] SELECT|UPDATE|DELETE ...
type ExplainStmt struct {
	Analyze bool
	JSON    bool // FORMAT JSON
	Query   *QueryStmt
}

// CommitStmt is an explicit global commit — a synchronization point.
type CommitStmt struct{}

// RollbackStmt is an explicit global rollback.
type RollbackStmt struct{}

// MultiTxStmt is BEGIN MULTITRANSACTION ... COMMIT <acceptable states>
// END MULTITRANSACTION. Each acceptable state is a conjunction of
// database names or aliases; states are checked in specification order.
// COMMIT EFFECTIVE additionally requires each member's subquery to have
// affected at least one row — a reservation that matched no free resource
// commits vacuously and must not satisfy a state.
type MultiTxStmt struct {
	Body             []Stmt
	AcceptableStates [][]string
	Effective        bool
}

// IncorporateStmt registers a service in the Auxiliary Directory.
type IncorporateStmt struct {
	Service        string
	Site           string
	Connect        bool // CONNECTMODE CONNECT
	AutoCommitOnly bool // COMMITMODE COMMIT
	DDLCommit      map[string]bool
}

// ImportStmt copies schema definitions from a service into the GDD.
type ImportStmt struct {
	Database string
	Service  string
	Table    string
	View     string
	Columns  []string
}

// CreateMultidatabaseStmt defines a named multidatabase — the virtual
// databases of §2 — usable in USE scopes:
//
//	CREATE MULTIDATABASE airlines (continental, delta, united)
type CreateMultidatabaseStmt struct {
	Name    string
	Members []string
}

// DropMultidatabaseStmt removes a multidatabase definition.
type DropMultidatabaseStmt struct {
	Name string
}

// CreateMultiviewStmt stores a named multidatabase view: a multiple query
// together with the scope and LET bindings in force at definition time.
// Invoke it with SELECT * FROM <name>.
type CreateMultiviewStmt struct {
	Name string
	Body sqlparser.Statement // a SELECT
}

// DropMultiviewStmt removes a multidatabase view.
type DropMultiviewStmt struct {
	Name string
}

// CreateTriggerStmt defines an interdatabase trigger (§2): after a
// successful synchronization in which the named database committed a
// statement of the given class, the trigger's manipulation statement
// executes (with the scope and LET bindings captured at definition time).
//
//	CREATE TRIGGER audit ON delta AFTER UPDATE EXECUTE
//	  INSERT INTO log% (what) VALUES ('delta updated')
type CreateTriggerStmt struct {
	Name     string
	Database string
	Event    string // "UPDATE", "INSERT", "DELETE", "CREATE", "DROP"
	Body     *QueryStmt
}

// DropTriggerStmt removes a trigger.
type DropTriggerStmt struct {
	Name string
}

func (*UseStmt) msqlStmt()                 {}
func (*LetStmt) msqlStmt()                 {}
func (*QueryStmt) msqlStmt()               {}
func (*ExplainStmt) msqlStmt()             {}
func (*CommitStmt) msqlStmt()              {}
func (*RollbackStmt) msqlStmt()            {}
func (*MultiTxStmt) msqlStmt()             {}
func (*IncorporateStmt) msqlStmt()         {}
func (*ImportStmt) msqlStmt()              {}
func (*CreateMultidatabaseStmt) msqlStmt() {}
func (*DropMultidatabaseStmt) msqlStmt()   {}
func (*CreateMultiviewStmt) msqlStmt()     {}
func (*DropMultiviewStmt) msqlStmt()       {}
func (*CreateTriggerStmt) msqlStmt()       {}
func (*DropTriggerStmt) msqlStmt()         {}

// Script is a parsed sequence of MSQL statements.
type Script struct {
	Stmts []Stmt
}

// keyword helpers shared with the parser.
func isKw(s, kw string) bool { return strings.EqualFold(s, kw) }
