// Package ldbms simulates the heterogeneous local database systems of the
// paper's federation (Oracle, Ingres and Sybase in the original testbed).
// Each server wraps a relstore/sqlengine pair behind a session interface
// and a capability profile that reproduces exactly the observable commit
// behaviours Section 3.2.2 of the paper builds its semantics on:
//
//   - COMMITMODE COMMIT servers autocommit every statement and cannot
//     expose a prepared-to-commit state;
//   - COMMITMODE NOCOMMIT servers provide a user-controlled 2PC interface
//     with a visible prepared state;
//   - some 2PC servers autocommit DDL together with all previously issued
//     uncommitted statements (the paper's Ingres observation), while
//     others can roll DDL back (the paper's Oracle observation).
//
// Fault injection hooks let tests and experiments force local aborts at
// exec, prepare or commit time — the "local conflicts, failure, deadlock"
// causes the paper lists.
package ldbms

import "msql/internal/sqlparser"

// StmtClass partitions statements the way the INCORPORATE statement's
// per-command commit modes do.
type StmtClass uint8

// Statement classes.
const (
	ClassSelect StmtClass = iota
	ClassInsert
	ClassUpdate
	ClassDelete
	ClassCreate // CREATE TABLE/DATABASE/VIEW
	ClassDrop   // DROP TABLE/DATABASE/VIEW
	ClassOther
	// ClassTemp is DDL on the session's temporary tables: CREATE
	// TEMPORARY TABLE, and DROP TABLE of a name the session holds as
	// temporary. A 2PC server never autocommits it.
	ClassTemp
)

func (c StmtClass) String() string {
	switch c {
	case ClassSelect:
		return "SELECT"
	case ClassInsert:
		return "INSERT"
	case ClassUpdate:
		return "UPDATE"
	case ClassDelete:
		return "DELETE"
	case ClassCreate:
		return "CREATE"
	case ClassDrop:
		return "DROP"
	case ClassTemp:
		return "TEMP"
	default:
		return "OTHER"
	}
}

// classOf reports the statement class of a parsed statement.
func classOf(stmt sqlparser.Statement) StmtClass {
	switch s := stmt.(type) {
	case *sqlparser.ExplainStmt:
		// EXPLAIN ANALYZE executes its target, so it is whatever the
		// target is; plain EXPLAIN only plans and reads nothing.
		if s.Analyze {
			return classOf(s.Target)
		}
		return ClassSelect
	case *sqlparser.SelectStmt:
		return ClassSelect
	case *sqlparser.InsertStmt:
		return ClassInsert
	case *sqlparser.UpdateStmt:
		return ClassUpdate
	case *sqlparser.DeleteStmt:
		return ClassDelete
	case *sqlparser.CreateTableStmt:
		if s.Temporary {
			return ClassTemp
		}
		return ClassCreate
	case *sqlparser.CreateDatabaseStmt, *sqlparser.CreateViewStmt:
		return ClassCreate
	case *sqlparser.DropTableStmt, *sqlparser.DropDatabaseStmt, *sqlparser.DropViewStmt:
		return ClassDrop
	default:
		return ClassOther
	}
}

// Profile is the capability description of a local DBMS product, the
// information the Auxiliary Directory records at INCORPORATE time.
type Profile struct {
	// Name labels the product the profile imitates.
	Name string
	// MultiDatabase is the CONNECTMODE: true (CONNECT) when the server
	// hosts several named databases, false (NOCONNECT) when it exposes a
	// single default database.
	MultiDatabase bool
	// TwoPC is the COMMITMODE: true (NOCOMMIT) when the server offers a
	// user-controlled two-phase commit interface with a visible
	// prepared-to-commit state, false (COMMIT) when every statement
	// autocommits.
	TwoPC bool
	// AutoCommitClasses lists statement classes that commit immediately
	// even on a 2PC server, dragging all previously issued uncommitted
	// statements with them (the paper's Ingres DDL behaviour).
	AutoCommitClasses map[StmtClass]bool
}

// AutoCommits reports whether executing class forces an immediate commit
// of the session's open transaction. A 2PC server never commits for
// temporary-table DDL, so the redo of a transaction that prepares holds
// every temporary table its statements read.
func (p Profile) AutoCommits(class StmtClass) bool {
	if !p.TwoPC {
		return true
	}
	return class != ClassTemp && p.AutoCommitClasses[class]
}

// Clone deep-copies the profile.
func (p Profile) Clone() Profile {
	c := p
	c.AutoCommitClasses = make(map[StmtClass]bool, len(p.AutoCommitClasses))
	for k, v := range p.AutoCommitClasses {
		c.AutoCommitClasses[k] = v
	}
	return c
}

// ProfileOracleLike models the paper's DBMS that "allows DDL commands to
// be rolled back": full 2PC, nothing autocommits.
func ProfileOracleLike() Profile {
	return Profile{
		Name:              "oracle-like",
		MultiDatabase:     true,
		TwoPC:             true,
		AutoCommitClasses: map[StmtClass]bool{},
	}
}

// ProfileIngresLike models the paper's DBMS that "automatically commits
// [DDL] together with all previously issued uncommitted statements".
func ProfileIngresLike() Profile {
	return Profile{
		Name:          "ingres-like",
		MultiDatabase: true,
		TwoPC:         true,
		AutoCommitClasses: map[StmtClass]bool{
			ClassCreate: true,
			ClassDrop:   true,
		},
	}
}

// ProfileSybaseLike models a single-database (NOCONNECT) 2PC server.
func ProfileSybaseLike() Profile {
	return Profile{
		Name:              "sybase-like",
		MultiDatabase:     false,
		TwoPC:             true,
		AutoCommitClasses: map[StmtClass]bool{},
	}
}

// ProfileAutoCommitOnly models a COMMITMODE COMMIT server without any 2PC
// interface; VITAL use requires compensation (§3.3).
func ProfileAutoCommitOnly() Profile {
	return Profile{
		Name:              "autocommit-only",
		MultiDatabase:     true,
		TwoPC:             false,
		AutoCommitClasses: map[StmtClass]bool{},
	}
}
