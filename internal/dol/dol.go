// Package dol implements the task specification language of the Narada
// environment that the paper's translator targets (§4.1, §4.3): DOL
// programs open connections to services, submit tasks carrying local SQL,
// synchronize on task execution states, and commit or abort groups of
// tasks conditionally.
//
// The syntax follows the paper's listing:
//
//	DOLBEGIN
//	OPEN continental AT site1 AS cont;
//	TASK T1 NOCOMMIT FOR cont
//	{ UPDATE flights SET rate = rate * 1.1 WHERE ... }
//	ENDTASK;
//	IF (T1=P) AND (T3=P) THEN
//	BEGIN
//	COMMIT T1, T3;
//	DOLSTATUS=0;
//	END;
//	ELSE
//	BEGIN
//	ABORT T1, T3;
//	DOLSTATUS=1;
//	END;
//	CLOSE cont delta unit;
//	DOLEND
//
// Two constructs extend the paper's listing where its prose requires
// them: TASK ... AFTER t1 t2 declares execution dependencies (data flow
// control), and SHIP moves a task's result rows into a table at another
// connection — the mechanism behind "partial results are collected in one
// database, acting as the coordinator".
package dol

import (
	"fmt"

	"msql/internal/schema"
	"msql/internal/sqlparser"
)

// TaskStatus is the execution state of a DOL task, as tested by IF
// conditions.
type TaskStatus uint8

// Task states. The single-letter spellings match the paper: P is
// prepared-to-commit, C committed, A aborted, E error, N not yet run,
// R running.
const (
	StatusNotRun TaskStatus = iota
	StatusRunning
	StatusPrepared
	StatusCommitted
	StatusAborted
	StatusError
	// StatusInDoubt marks a participant whose prepared transaction lost
	// its coordinator connection before the decision arrived (§3.2.2's
	// commit-heterogeneity window): the outcome at the server is unknown
	// until the recovery protocol resolves it.
	StatusInDoubt
)

// Letter returns the single-letter spelling used in DOL sources.
func (s TaskStatus) Letter() string {
	switch s {
	case StatusNotRun:
		return "N"
	case StatusRunning:
		return "R"
	case StatusPrepared:
		return "P"
	case StatusCommitted:
		return "C"
	case StatusAborted:
		return "A"
	case StatusError:
		return "E"
	case StatusInDoubt:
		return "D"
	default:
		return "?"
	}
}

func (s TaskStatus) String() string {
	switch s {
	case StatusNotRun:
		return "not-run"
	case StatusRunning:
		return "running"
	case StatusPrepared:
		return "prepared"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	case StatusError:
		return "error"
	case StatusInDoubt:
		return "in-doubt"
	default:
		return fmt.Sprintf("TaskStatus(%d)", uint8(s))
	}
}

// StatusFromLetter parses a status letter.
func StatusFromLetter(s string) (TaskStatus, error) {
	switch s {
	case "N":
		return StatusNotRun, nil
	case "R":
		return StatusRunning, nil
	case "P":
		return StatusPrepared, nil
	case "C":
		return StatusCommitted, nil
	case "A":
		return StatusAborted, nil
	case "E":
		return StatusError, nil
	case "D":
		return StatusInDoubt, nil
	default:
		return 0, fmt.Errorf("dol: unknown task status %q", s)
	}
}

// Stmt is any DOL statement.
type Stmt interface{ dolStmt() }

// Program is a parsed DOL program.
type Program struct {
	Stmts []Stmt
}

// OpenStmt connects to a service: OPEN db AT site AS alias.
type OpenStmt struct {
	Database string
	Site     string // service name or address, resolved via the directory
	Alias    string
}

// TaskStmt submits local SQL to a connection. NOCOMMIT tasks are left in
// the prepared-to-commit state on success; others autocommit. AFTER names
// tasks that must settle before this one starts.
type TaskStmt struct {
	Name     string
	NoCommit bool
	After    []string
	Conn     string
	Body     []sqlparser.Statement
}

// ShipStmt moves the result rows of a task into a fresh table at a
// connection: SHIP task TO conn TABLE name (columns).
type ShipStmt struct {
	Task    string
	To      string
	Table   string
	Columns []schema.Column
}

// IfStmt branches on task execution states.
type IfStmt struct {
	Cond Cond
	Then []Stmt
	Else []Stmt
}

// CommitStmt commits prepared tasks: COMMIT T1, T2.
type CommitStmt struct {
	Tasks []string
}

// AbortStmt rolls back tasks: ABORT T1, T2.
type AbortStmt struct {
	Tasks []string
}

// StatusStmt sets the program's return code: DOLSTATUS=0.
type StatusStmt struct {
	Code int
}

// CloseStmt closes connections: CLOSE cont delta unit.
type CloseStmt struct {
	Aliases []string
}

func (*OpenStmt) dolStmt()   {}
func (*TaskStmt) dolStmt()   {}
func (*ShipStmt) dolStmt()   {}
func (*IfStmt) dolStmt()     {}
func (*CommitStmt) dolStmt() {}
func (*AbortStmt) dolStmt()  {}
func (*StatusStmt) dolStmt() {}
func (*CloseStmt) dolStmt()  {}

// Cond is a condition over task states.
type Cond interface{ dolCond() }

// StatusCond is (T1=P).
type StatusCond struct {
	Task   string
	Status TaskStatus
}

// RowsCond is (T1>0): the task affected more than MinRows rows. Plans use
// it to require that a subquery was effective, not just committed — e.g.
// a reservation UPDATE that matched no free resource commits vacuously
// and must not satisfy an acceptable termination state.
type RowsCond struct {
	Task    string
	MinRows int
}

// AndCond is conjunction.
type AndCond struct{ L, R Cond }

// OrCond is disjunction.
type OrCond struct{ L, R Cond }

// NotCond is negation.
type NotCond struct{ X Cond }

func (*StatusCond) dolCond() {}
func (*RowsCond) dolCond()   {}
func (*AndCond) dolCond()    {}
func (*OrCond) dolCond()     {}
func (*NotCond) dolCond()    {}

// TasksIn collects the task names a condition references.
func TasksIn(c Cond) []string {
	seen := map[string]bool{}
	var out []string
	var rec func(Cond)
	rec = func(c Cond) {
		switch x := c.(type) {
		case *StatusCond:
			if !seen[x.Task] {
				seen[x.Task] = true
				out = append(out, x.Task)
			}
		case *RowsCond:
			if !seen[x.Task] {
				seen[x.Task] = true
				out = append(out, x.Task)
			}
		case *AndCond:
			rec(x.L)
			rec(x.R)
		case *OrCond:
			rec(x.L)
			rec(x.R)
		case *NotCond:
			rec(x.X)
		}
	}
	rec(c)
	return out
}

// Eval evaluates a condition against a status snapshot. rows reports a
// task's affected-row count (RowsCond); it may be nil when no RowsCond
// appears in the condition.
func Eval(c Cond, status func(task string) TaskStatus, rows func(task string) int) bool {
	switch x := c.(type) {
	case *StatusCond:
		return status(x.Task) == x.Status
	case *RowsCond:
		return rows != nil && rows(x.Task) > x.MinRows
	case *AndCond:
		return Eval(x.L, status, rows) && Eval(x.R, status, rows)
	case *OrCond:
		return Eval(x.L, status, rows) || Eval(x.R, status, rows)
	case *NotCond:
		return !Eval(x.X, status, rows)
	default:
		return false
	}
}
