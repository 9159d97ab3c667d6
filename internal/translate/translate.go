// Package translate generates DOL evaluation plans from MSQL statements —
// the translator box of the paper's architecture (Figure 1). It
// implements the semantics of Section 3:
//
//   - multiple queries are decomposed into at most one subquery per
//     database; VITAL subqueries run NOCOMMIT and reach the visible
//     prepared-to-commit state, NON VITAL subqueries autocommit and never
//     affect the global outcome (§3.2.1);
//   - at a synchronization point, either every VITAL subquery commits or
//     every one is rolled back or compensated (§3.2.2);
//   - a VITAL database whose service offers no 2PC must carry a COMP
//     clause, whose compensating subquery runs exactly when the original
//     subquery committed but the global query aborts (§3.3);
//   - multitransactions keep every subquery prepared until the COMMIT
//     point, then walk the acceptable termination states in specification
//     order, committing the members of the first reachable state and
//     rolling back or compensating everything else (§3.4).
package translate

import (
	"errors"
	"fmt"
	"strconv"

	"msql/internal/catalog"
	"msql/internal/decompose"
	"msql/internal/dol"
	"msql/internal/msqlparser"
	"msql/internal/semvar"
	"msql/internal/sqlparser"
)

// Translation errors.
var (
	ErrVitalNeedsComp = errors.New("translate: VITAL database without 2PC requires a COMP clause")
	ErrAmbiguousDML   = errors.New("translate: multiple update resolves ambiguously; refine the pattern")
	ErrDuplicateDB    = errors.New("translate: database receives more than one subquery")
	ErrBadState       = errors.New("translate: acceptable state names unknown database")
	ErrCrossInUnit    = errors.New("translate: cross-database statement cannot join a transaction unit")
	ErrNoScope        = errors.New("translate: no scope; issue USE first")
)

// Return codes reported through DOLSTATUS.
const (
	StatusSuccess = 0 // all VITAL subqueries committed
	StatusAborted = 1 // all VITAL subqueries rolled back or compensated
)

// Context carries the dictionaries needed for plan generation.
type Context struct {
	AD  *catalog.AD
	GDD *catalog.GDD
}

// serviceInfo resolves a database to its service record.
func (c *Context) serviceInfo(db string) (site string, twoPC bool, err error) {
	site, entry, err := c.serviceEntry(db)
	if err != nil {
		return "", false, err
	}
	return site, entry.SupportsTwoPC(), nil
}

// serviceEntry resolves a database to its full Auxiliary Directory
// record.
func (c *Context) serviceEntry(db string) (site string, entry *catalog.ServiceEntry, err error) {
	svc, err := c.GDD.ServiceOf(db)
	if err != nil {
		return "", nil, err
	}
	entry, err = c.AD.Lookup(svc)
	if err != nil {
		return "", nil, err
	}
	site = entry.Site
	if site == "" {
		site = svc
	}
	return site, entry, nil
}

// ddlClassOf returns the INCORPORATE DDL class of a statement ("CREATE",
// "INSERT", "DROP"), or "" when the statement's commit behaviour is not
// recorded per class in the AD.
func ddlClassOf(s sqlparser.Statement) string {
	switch s.(type) {
	case *sqlparser.CreateTableStmt, *sqlparser.CreateViewStmt:
		return "CREATE"
	case *sqlparser.DropTableStmt, *sqlparser.DropViewStmt:
		return "DROP"
	case *sqlparser.InsertStmt:
		return "INSERT"
	default:
		return ""
	}
}

// TaskRole classifies a task in the plan.
type TaskRole uint8

// Task roles.
const (
	RoleRead  TaskRole = iota // partial-result subquery of a SELECT
	RoleWrite                 // update subquery
	RoleComp                  // compensating action
	RoleFinal                 // coordinator's modified global query
)

// TaskMeta maps one DOL task back to MSQL-level concepts.
type TaskMeta struct {
	Name      string
	Entry     semvar.ScopeEntry
	Role      TaskRole
	StmtIndex int  // which unit statement produced it
	Comp      bool // true when the task's database relies on compensation
	// Stmt is the first substituted statement of the task body (the
	// elementary query), used by the executor to maintain the GDD after
	// successful DDL.
	Stmt sqlparser.Statement
}

// ProvisionalDef records a table definition entered into the GDD at
// translation time so that later statements of the same unit can
// reference a table the unit itself creates. The executor removes the
// definition if the creating task does not commit.
type ProvisionalDef struct {
	Database string
	Table    string
	TaskName string
}

// Meta describes a generated plan for the executor layer.
type Meta struct {
	Tasks            []TaskMeta
	Skipped          []semvar.Skip
	FinalTask        string
	VitalNames       []string
	AcceptableStates [][]string
	// FailStatus is the DOLSTATUS value meaning "no acceptable state
	// reached" for multitransactions.
	FailStatus int
	// Provisional lists GDD entries added during translation.
	Provisional []ProvisionalDef
}

// TaskFor returns the task name serving a scope entry name, or "".
func (m *Meta) TaskFor(entryName string) string {
	for _, t := range m.Tasks {
		if t.Entry.Name == entryName && t.Role != RoleComp {
			return t.Name
		}
	}
	return ""
}

// UnitQuery is one manipulation statement inside a transaction unit,
// together with the LET bindings in force when it was issued.
type UnitQuery struct {
	Lets  []msqlparser.LetBinding
	Query *msqlparser.QueryStmt
}

// SyncMode selects what happens at the unit's synchronization point.
type SyncMode uint8

// Synchronization modes: Commit attempts global commit of the vital set,
// Rollback forces global rollback.
const (
	SyncCommit SyncMode = iota
	SyncRollback
)

// planBuilder accumulates a DOL program.
type planBuilder struct {
	ctx      *Context
	prog     *dol.Program
	meta     *Meta
	opened   map[string]bool // entry name -> opened
	lastTask map[string]string
	nTasks   int
	nComps   int
}

func newBuilder(ctx *Context) *planBuilder {
	return &planBuilder{
		ctx:      ctx,
		prog:     &dol.Program{},
		meta:     &Meta{},
		opened:   map[string]bool{},
		lastTask: map[string]string{},
	}
}

// open ensures a connection for a scope entry and returns its alias.
func (b *planBuilder) open(entry semvar.ScopeEntry) (string, error) {
	if b.opened[entry.Name] {
		return entry.Name, nil
	}
	site, _, err := b.ctx.serviceInfo(entry.Database)
	if err != nil {
		return "", err
	}
	b.prog.Stmts = append(b.prog.Stmts, &dol.OpenStmt{
		Database: entry.Database,
		Site:     site,
		Alias:    entry.Name,
	})
	b.opened[entry.Name] = true
	return entry.Name, nil
}

// addTask appends a task on the entry's connection, chained after the
// previous task on the same connection.
func (b *planBuilder) addTask(entry semvar.ScopeEntry, noCommit bool, role TaskRole, stmtIdx int, comp bool, body ...sqlparser.Statement) (*dol.TaskStmt, error) {
	alias, err := b.open(entry)
	if err != nil {
		return nil, err
	}
	b.nTasks++
	name := "T" + strconv.Itoa(b.nTasks)
	task := &dol.TaskStmt{Name: name, NoCommit: noCommit, Conn: alias, Body: body}
	if prev, ok := b.lastTask[alias]; ok {
		task.After = append(task.After, prev)
	}
	b.lastTask[alias] = name
	b.prog.Stmts = append(b.prog.Stmts, task)
	tm := TaskMeta{Name: name, Entry: entry, Role: role, StmtIndex: stmtIdx, Comp: comp}
	if len(body) > 0 {
		tm.Stmt = body[0]
	}
	b.meta.Tasks = append(b.meta.Tasks, tm)
	return task, nil
}

// compTaskStmt builds (without appending) a compensation task for a
// committed subquery, to be nested under a condition.
func (b *planBuilder) compTaskStmt(entry semvar.ScopeEntry, stmtIdx int, body sqlparser.Statement) *dol.TaskStmt {
	b.nComps++
	name := "C" + strconv.Itoa(b.nComps)
	task := &dol.TaskStmt{Name: name, Conn: entry.Name, Body: []sqlparser.Statement{body}}
	b.meta.Tasks = append(b.meta.Tasks, TaskMeta{
		Name: name, Entry: entry, Role: RoleComp, StmtIndex: stmtIdx, Comp: true, Stmt: body,
	})
	return task
}

// closeAll appends the CLOSE statement.
func (b *planBuilder) closeAll() {
	if len(b.opened) == 0 {
		return
	}
	var aliases []string
	for _, s := range b.prog.Stmts {
		if o, ok := s.(*dol.OpenStmt); ok {
			aliases = append(aliases, o.Alias)
		}
	}
	b.prog.Stmts = append(b.prog.Stmts, &dol.CloseStmt{Aliases: aliases})
}

// conj folds status conditions into a conjunction.
func conj(conds []dol.Cond) dol.Cond {
	var out dol.Cond
	for _, c := range conds {
		if out == nil {
			out = c
		} else {
			out = &dol.AndCond{L: out, R: c}
		}
	}
	return out
}

// findComp locates the COMP clause for an entry within a statement.
func findComp(q *msqlparser.QueryStmt, entry semvar.ScopeEntry) (sqlparser.Statement, bool) {
	for _, c := range q.Comps {
		if c.Database == entry.Name || c.Database == entry.Database {
			return c.Body, true
		}
	}
	return nil, false
}

// vitalTaskKind decides how a subquery on an entry executes.
type vitalTaskKind struct {
	noCommit bool // run NOCOMMIT and hold prepared
	comp     sqlparser.Statement
	isVital  bool
}

// vitalKind decides how a vital subquery executes. Besides the
// COMMITMODE, the per-class commit modes the INCORPORATE statement
// recorded matter: a service that autocommits CREATE (the paper's Ingres
// observation) cannot hold a VITAL CREATE in the prepared state, so such
// a statement needs compensation exactly like one on an autocommit-only
// service.
func (c *Context) vitalKind(entry semvar.ScopeEntry, q *msqlparser.QueryStmt, stmt sqlparser.Statement) (vitalTaskKind, error) {
	if !entry.Vital {
		return vitalTaskKind{}, nil
	}
	_, svc, err := c.serviceEntry(entry.Database)
	if err != nil {
		return vitalTaskKind{}, err
	}
	rollbackable := svc.SupportsTwoPC()
	if rollbackable && stmt != nil {
		if class := ddlClassOf(stmt); class != "" && svc.DDLCommit[class] {
			rollbackable = false
		}
	}
	if rollbackable {
		return vitalTaskKind{noCommit: true, isVital: true}, nil
	}
	comp, ok := findComp(q, entry)
	if !ok {
		return vitalTaskKind{}, fmt.Errorf("%w: %s", ErrVitalNeedsComp, entry.Name)
	}
	return vitalTaskKind{comp: comp, isVital: true}, nil
}

// TranslateUnit builds the evaluation plan for a transaction unit: a
// sequence of manipulation statements sharing one scope, ended by a
// synchronization point (explicit COMMIT/ROLLBACK, scope change, or end
// of script).
func (c *Context) TranslateUnit(scope []semvar.ScopeEntry, unit []UnitQuery, mode SyncMode) (*dol.Program, *Meta, error) {
	if len(scope) == 0 {
		return nil, nil, ErrNoScope
	}
	b := newBuilder(c)
	var vitals []vitalPair

	for i, uq := range unit {
		res, err := semvar.Expand(c.GDD, scope, uq.Lets, uq.Query.Body)
		if err != nil {
			return nil, nil, fmt.Errorf("statement %d: %w", i+1, err)
		}
		b.meta.Skipped = append(b.meta.Skipped, res.Skipped...)
		perDB := map[string]int{}
		for _, el := range res.Queries {
			if el.Global {
				return nil, nil, fmt.Errorf("statement %d: %w", i+1, ErrCrossInUnit)
			}
			perDB[el.Entry.Database]++
			if perDB[el.Entry.Database] > 1 {
				return nil, nil, fmt.Errorf("statement %d: %w (%s)", i+1, ErrAmbiguousDML, el.Entry.Database)
			}
		}
		for _, el := range res.Queries {
			kind, err := c.vitalKind(el.Entry, uq.Query, el.Stmt)
			if err != nil {
				return nil, nil, fmt.Errorf("statement %d: %w", i+1, err)
			}
			task, err := b.addTask(el.Entry, kind.noCommit, RoleWrite, i, kind.comp != nil, el.Stmt)
			if err != nil {
				return nil, nil, err
			}
			if kind.isVital {
				vitals = append(vitals, vitalPair{task: task, entry: el.Entry, comp: kind.comp, stmt: i})
				if !containsString(b.meta.VitalNames, el.Entry.Name) {
					b.meta.VitalNames = append(b.meta.VitalNames, el.Entry.Name)
				}
			}
			// A table created by this statement becomes visible to later
			// statements of the unit, provisionally.
			if ct, ok := el.Stmt.(*sqlparser.CreateTableStmt); ok {
				def := catalog.TableDef{Name: ct.Table.Last(), Columns: ct.Columns}
				if err := c.GDD.PutTable(el.Entry.Database, def); err == nil {
					b.meta.Provisional = append(b.meta.Provisional, ProvisionalDef{
						Database: el.Entry.Database, Table: def.Name, TaskName: task.Name,
					})
				}
			}
		}
	}

	// Synchronization point.
	switch mode {
	case SyncCommit:
		if len(vitals) == 0 {
			// A multiple query with an empty vital set is always
			// successful (§3.2.1).
			b.prog.Stmts = append(b.prog.Stmts, &dol.StatusStmt{Code: StatusSuccess})
			break
		}
		b.appendVitalSync(vitals)
	case SyncRollback:
		stmts := b.abortAndCompensate(vitals)
		stmts = append(stmts, &dol.StatusStmt{Code: StatusAborted})
		b.prog.Stmts = append(b.prog.Stmts, stmts...)
	}
	b.closeAll()
	return b.prog, b.meta, nil
}

// vitalPair pairs a vital task with its entry and optional compensation.
// A nil comp means the task ran NOCOMMIT on a 2PC service.
type vitalPair struct {
	task  *dol.TaskStmt
	entry semvar.ScopeEntry
	comp  sqlparser.Statement
	stmt  int
}

// abortAndCompensate builds the global-abort statements: roll back every
// prepared vital task, then compensate (in reverse order) every vital
// subquery that already committed on a non-2PC service.
func (b *planBuilder) abortAndCompensate(vitals []vitalPair) []dol.Stmt {
	var out []dol.Stmt
	var aborts []string
	for _, v := range vitals {
		if v.comp == nil {
			aborts = append(aborts, v.task.Name)
		}
	}
	if len(aborts) > 0 {
		out = append(out, &dol.AbortStmt{Tasks: aborts})
	}
	for i := len(vitals) - 1; i >= 0; i-- {
		v := vitals[i]
		if v.comp == nil {
			continue
		}
		compTask := b.compTaskStmt(v.entry, v.stmt, v.comp)
		out = append(out, &dol.IfStmt{
			Cond: &dol.StatusCond{Task: v.task.Name, Status: dol.StatusCommitted},
			Then: []dol.Stmt{compTask},
		})
	}
	return out
}

func containsString(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// TranslateQuery builds the plan for one immediate statement: a SELECT
// (fan-out or global), or a cross-database DML that forms its own unit.
func (c *Context) TranslateQuery(scope []semvar.ScopeEntry, lets []msqlparser.LetBinding, q *msqlparser.QueryStmt) (*dol.Program, *Meta, error) {
	if len(scope) == 0 {
		return nil, nil, ErrNoScope
	}
	res, err := semvar.Expand(c.GDD, scope, lets, q.Body)
	if err != nil {
		return nil, nil, err
	}
	b := newBuilder(c)
	b.meta.Skipped = res.Skipped

	if len(res.Queries) == 1 && res.Queries[0].Global {
		if err := c.translateGlobal(b, scope, res.Queries[0], q); err != nil {
			return nil, nil, err
		}
		b.prog.Stmts = append(b.prog.Stmts, &dol.StatusStmt{Code: StatusSuccess})
		b.closeAll()
		return b.prog, b.meta, nil
	}

	// Fan-out SELECT: one read task per elementary query; partial results
	// become the multitable.
	for _, el := range res.Queries {
		if _, err := b.addTask(el.Entry, false, RoleRead, 0, false, el.Stmt); err != nil {
			return nil, nil, err
		}
	}
	b.prog.Stmts = append(b.prog.Stmts, &dol.StatusStmt{Code: StatusSuccess})
	b.closeAll()
	return b.prog, b.meta, nil
}

// translateGlobal emits the subquery/ship/final pipeline of a decomposed
// cross-database query.
func (c *Context) translateGlobal(b *planBuilder, scope []semvar.ScopeEntry, el semvar.Elementary, q *msqlparser.QueryStmt) error {
	plan, err := decompose.Decompose(c.GDD, el)
	if err != nil {
		return err
	}
	entryFor := func(db string) semvar.ScopeEntry {
		for _, e := range scope {
			if e.Database == db || e.Name == db {
				return e
			}
		}
		return semvar.ScopeEntry{Database: db, Name: db}
	}

	if plan.Final == nil {
		// Single-database statement after all. Respect vitality for DML.
		sq := plan.Subqueries[0]
		entry := entryFor(sq.Database)
		role := RoleWrite
		if _, ok := sq.Stmt.(*sqlparser.SelectStmt); ok {
			role = RoleRead
		}
		kind, err := c.vitalKind(entry, q, sq.Stmt)
		if err != nil {
			return err
		}
		if role == RoleRead {
			kind = vitalTaskKind{}
		}
		task, err := b.addTask(entry, kind.noCommit, role, 0, kind.comp != nil, sq.Stmt)
		if err != nil {
			return err
		}
		if kind.isVital && role == RoleWrite {
			b.appendVitalSync([]vitalPair{{task: task, entry: entry, comp: kind.comp}})
		}
		return nil
	}

	// Subqueries (reads) in parallel, shipped to the coordinator.
	var srcTasks []string
	for _, sq := range plan.Subqueries {
		entry := entryFor(sq.Database)
		task, err := b.addTask(entry, false, RoleRead, 0, false, sq.Stmt)
		if err != nil {
			return err
		}
		srcTasks = append(srcTasks, task.Name)
	}
	coord := entryFor(plan.CoordinatorDB)
	coordAlias, err := b.open(coord)
	if err != nil {
		return err
	}
	for _, ship := range plan.Ships {
		b.prog.Stmts = append(b.prog.Stmts, &dol.ShipStmt{
			Task:    srcTasks[ship.FromIndex],
			To:      coordAlias,
			Table:   ship.Table,
			Columns: ship.Columns,
		})
	}
	body := []sqlparser.Statement{plan.Final}
	for _, tmp := range plan.Cleanup {
		body = append(body, &sqlparser.DropTableStmt{Table: sqlparser.Name(tmp)})
	}
	role := RoleFinal
	finalKind := vitalTaskKind{}
	if _, isSelect := plan.Final.(*sqlparser.SelectStmt); !isSelect {
		// Final write (INSERT transfer): respect target vitality.
		k, err := c.vitalKind(coord, q, plan.Final)
		if err != nil {
			return err
		}
		finalKind = k
	}
	final, err := b.addTask(coord, finalKind.noCommit, role, 0, finalKind.comp != nil, body...)
	if err != nil {
		return err
	}
	for _, src := range srcTasks {
		if !containsString(final.After, src) {
			final.After = append(final.After, src)
		}
	}
	b.meta.FinalTask = final.Name
	if finalKind.isVital {
		b.appendVitalSync([]vitalPair{{task: final, entry: coord, comp: finalKind.comp}})
	}
	return nil
}

// appendVitalSync emits the vital-set synchronization block: commit every
// vital task if all reached their required state, otherwise abort and
// compensate.
func (b *planBuilder) appendVitalSync(vitals []vitalPair) {
	var conds []dol.Cond
	var commits []string
	for _, v := range vitals {
		if v.comp == nil {
			conds = append(conds, &dol.StatusCond{Task: v.task.Name, Status: dol.StatusPrepared})
			commits = append(commits, v.task.Name)
		} else {
			conds = append(conds, &dol.StatusCond{Task: v.task.Name, Status: dol.StatusCommitted})
		}
	}
	thenStmts := []dol.Stmt{}
	if len(commits) > 0 {
		thenStmts = append(thenStmts, &dol.CommitStmt{Tasks: commits})
	}
	thenStmts = append(thenStmts, &dol.StatusStmt{Code: StatusSuccess})
	elseStmts := b.abortAndCompensate(vitals)
	elseStmts = append(elseStmts, &dol.StatusStmt{Code: StatusAborted})
	b.prog.Stmts = append(b.prog.Stmts, &dol.IfStmt{Cond: conj(conds), Then: thenStmts, Else: elseStmts})
	for _, v := range vitals {
		if !containsString(b.meta.VitalNames, v.entry.Name) {
			b.meta.VitalNames = append(b.meta.VitalNames, v.entry.Name)
		}
	}
}
