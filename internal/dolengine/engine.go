// Package dolengine executes DOL programs, playing the role of the Narada
// engine in the paper's architecture (Figure 1). It opens connections to
// services through LAM clients, runs tasks concurrently (tasks start as
// soon as their AFTER dependencies settle), synchronizes at IF conditions
// and COMMIT/ABORT statements, ships partial results between connections,
// and reports the DOLSTATUS return code together with the final execution
// state of every task.
package dolengine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"msql/internal/dol"
	"msql/internal/lam"
	"msql/internal/obs"
	"msql/internal/sqlengine"
	"msql/internal/sqlparser"
	"msql/internal/wire"
)

// Engine metrics (see DESIGN.md §8).
var (
	mTaskOutcomes = obs.Default().CounterVec("msql_tasks_total",
		"DOL tasks by terminal status.", "status")
	mTaskLatency = obs.Default().HistogramVec("msql_task_seconds",
		"Wall time of each DOL task from start to settle.", nil, "status")
	mInDoubtDwell = obs.Default().Histogram("msql_indoubt_dwell_seconds",
		"Time participants spent in the in-doubt window before the recovery loop resolved them.", nil)
	mInDoubtUnresolved = obs.Default().Counter("msql_indoubt_unresolved_total",
		"In-doubt participants the bounded recovery loop could not reach.")
	mShipRows = obs.Default().CounterVec("msql_ship_rows_total",
		"Rows SHIP loaded into temp tables, per destination service.", "service")
	mShipBatches = obs.Default().CounterVec("msql_ship_batches_total",
		"Load round trips SHIP took to move those rows, per destination service.", "service")
)

// Engine errors.
var (
	ErrUnknownSite = errors.New("dolengine: unknown site")
	ErrUnknownConn = errors.New("dolengine: unknown connection")
	ErrUnknownTask = errors.New("dolengine: unknown task")
	ErrShipFailed  = errors.New("dolengine: ship source task did not succeed")
)

// Directory resolves site names to LAM clients — the Narada resource
// directory of §4.1. A lookup may have to dial the site first, and so
// takes the caller's deadline: a site that accepts TCP but never
// answers must not hold a plan or a recovery round past it.
type Directory interface {
	ResolveContext(ctx context.Context, site string) (lam.Client, error)
}

// MapDirectory is a Directory backed by a map.
type MapDirectory map[string]lam.Client

// ResolveContext implements Directory.
func (m MapDirectory) ResolveContext(_ context.Context, site string) (lam.Client, error) {
	c, ok := m[site]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSite, site)
	}
	return c, nil
}

// TaskInfo is the final record of one task's execution.
type TaskInfo struct {
	Status       dol.TaskStatus
	Err          error
	Result       *sqlengine.Result // last statement's result
	RowsAffected int
	Database     string
	Conn         string
	// Plan is the site-local plan tree of the task's last EXPLAIN
	// statement, nil otherwise. Elapsed covers the task's statement body
	// (not its 2PC phases).
	Plan    *obs.PlanNode
	Elapsed time.Duration
}

// InDoubt identifies a participant whose prepared transaction could not
// be driven to its synchronization-point decision within the bounded
// recovery loop: the LAM stayed unreachable. Operators (or a later
// recovery pass) resolve it with lam.Client.Resolve.
type InDoubt struct {
	Task      string
	Conn      string
	Database  string
	Addr      string
	SessionID int64
	// Commit is the recorded decision: true drives the participant to
	// commit, false to rollback.
	Commit bool
}

// Outcome is the result of running a program.
type Outcome struct {
	// Status is the DOLSTATUS return code (-1 when never set).
	Status int
	// Tasks maps task names to their final execution records.
	Tasks map[string]*TaskInfo
	// Unresolved lists in-doubt participants recovery could not reach;
	// their tasks keep dol.StatusInDoubt.
	Unresolved []InDoubt
	// Ships records every SHIP statement the program reached.
	Ships map[*dol.ShipStmt]ShipInfo
	// Prepared lists the remote participants that voted yes. A decision
	// names those of its tasks in the journal (TxLog.Decision), and once
	// the unit is fully terminal the coordinator acknowledges them
	// (Engine.Forget), so their LAMs can release the sessions' outcome
	// tombstones.
	Prepared []Vote
}

// Vote is one remote participant that voted yes: its task, the Directory
// key of the site its session was opened through, where a recovering
// coordinator re-attaches (lam.Recoverable), and the session there.
type Vote struct {
	Task      string
	Site      string
	Addr      string
	SessionID int64
}

// ShipInfo is the record of one executed SHIP: the rows loaded at the
// destination, the Load round trips they took, and the wall time from
// CREATE TABLE to the last batch.
type ShipInfo struct {
	Rows    int
	Batches int
	Elapsed time.Duration
}

// TaskStatus returns a task's final status, StatusNotRun for unknown
// names.
func (o *Outcome) TaskStatus(name string) dol.TaskStatus {
	if t, ok := o.Tasks[name]; ok {
		return t.Status
	}
	return dol.StatusNotRun
}

// TxLog receives the engine's durable-coordinator notifications: which
// synchronization-point decisions were taken, over which prepared
// participants, and each task's terminal outcome. A write-ahead journal
// (internal/mtlog, wired up by the core layer) implements it; Decision
// must make the record durable before returning, because the engine
// delivers the first COMMIT only after it returns successfully. A vote
// is not logged on its own: until a durable decision names it, presumed
// abort lets the participant roll it back.
type TxLog interface {
	// Decision records the commit/rollback decision for a set of tasks,
	// with the votes of those that prepared. A commit decision that
	// cannot be made durable must fail: the engine then aborts instead
	// of delivering an unlogged commit.
	Decision(commit bool, tasks []string, votes []Vote) error
	// TaskOutcome records a task's terminal status.
	TaskOutcome(task string, st dol.TaskStatus)
}

// Engine executes DOL programs.
type Engine struct {
	dir Directory

	// Recovery paces the bounded in-doubt resolution loop run after a
	// plan whose commit/rollback decisions could not be delivered.
	Recovery lam.RetryPolicy
	// RecoverTimeout bounds each individual resolution attempt.
	RecoverTimeout time.Duration
}

// New returns an engine over a service directory.
func New(dir Directory) *Engine {
	return &Engine{
		dir:            dir,
		Recovery:       lam.RetryPolicy{Attempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: 500 * time.Millisecond},
		RecoverTimeout: 2 * time.Second,
	}
}

// conn is one open connection (session) with serialized task access.
type conn struct {
	mu      sync.Mutex
	session lam.Session
	site    string // the Directory key the session was opened through
	service string // the site's service name, for per-destination metrics
	db      string
}

// taskRT is the runtime state of one task. deps are resolved at spawn
// time on the walker goroutine so task goroutines never touch the shared
// task table.
type taskRT struct {
	stmt *dol.TaskStmt
	info *TaskInfo
	deps []*taskRT
	mu   sync.Mutex
	done chan struct{}

	// in-doubt bookkeeping (guarded by mu): where to reconnect and the
	// synchronization-point decision to deliver on recovery.
	recoverAddr   string
	recoverID     int64
	recoverCommit bool
	recoverable   bool
	inDoubtAt     time.Time // when the participant entered the in-doubt window
}

// markInDoubt records a participant whose prepared transaction lost its
// connection before the decision (commit/rollback) was acknowledged.
func (t *taskRT) markInDoubt(rec lam.Recoverable, commit bool, err error) {
	addr, id := rec.RecoveryInfo()
	t.mu.Lock()
	t.info.Status = dol.StatusInDoubt
	if err != nil && t.info.Err == nil {
		t.info.Err = err
	}
	t.recoverAddr, t.recoverID, t.recoverCommit, t.recoverable = addr, id, commit, true
	t.inDoubtAt = time.Now()
	t.mu.Unlock()
}

func (t *taskRT) status() dol.TaskStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.info.Status
}

func (t *taskRT) setStatus(s dol.TaskStatus, err error) {
	t.mu.Lock()
	t.info.Status = s
	if err != nil && t.info.Err == nil {
		t.info.Err = err
	}
	t.mu.Unlock()
}

// siteFanout bounds how many connections, participants or sites one
// round contacts at once. The rounds are the COMMIT and ABORT decision
// rounds (decide: one goroutine per connection), the in-doubt recovery
// loop (ResolveAll) and the orphan sweep (SweepOrphans). A serial round costs
// the sum of its sites; at a 50-site fan-out a termination round would
// stall every site behind one dead participant's full backoff sequence.
// The jittered RetryPolicy backoff decorrelates the parallel retries.
const siteFanout = 16

// fanOut runs do(i) for every i < n, at most siteFanout at a time, and
// returns once all have finished.
func fanOut(n int, do func(i int)) {
	sem := make(chan struct{}, siteFanout)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			do(i)
		}(i)
	}
	wg.Wait()
}

// run carries the state of one program execution.
type run struct {
	eng   *Engine
	ctx   context.Context
	conns map[string]*conn
	tasks map[string]*taskRT
	out   *Outcome
	log   TxLog // nil when the plan is not journaled
	wg    sync.WaitGroup
	mu    sync.Mutex // guards out.Prepared
}

// notePrepared records a participant that voted yes in
// Outcome.Prepared, for the decision record and the acknowledgments.
func (r *run) notePrepared(rt *taskRT, c *conn) {
	addr, id := c.session.RecoveryInfo()
	r.mu.Lock()
	r.out.Prepared = append(r.out.Prepared, Vote{Task: rt.stmt.Name, Site: c.site, Addr: addr, SessionID: id})
	r.mu.Unlock()
}

// votesOf returns the votes of the named tasks that prepared.
func (r *run) votesOf(tasks []string) []Vote {
	r.mu.Lock()
	defer r.mu.Unlock()
	var votes []Vote
	for _, v := range r.out.Prepared {
		if slices.Contains(tasks, v.Task) {
			votes = append(votes, v)
		}
	}
	return votes
}

// logOutcome notifies the journal of a task's terminal status.
func (r *run) logOutcome(rt *taskRT) {
	if r.log == nil {
		return
	}
	st := rt.status()
	switch st {
	case dol.StatusCommitted, dol.StatusAborted, dol.StatusError:
		r.log.TaskOutcome(rt.stmt.Name, st)
	}
}

// Run executes a program to completion under ctx and returns its outcome.
// The context deadline bounds every remote LAM call; cancellation fails
// in-flight subqueries. The returned error covers engine-level failures
// (unknown sites, protocol errors); task-level SQL failures are reported
// per task in the Outcome. Before returning, participants left in-doubt
// by lost connections are driven to their recorded decision by a bounded
// recovery loop; the ones that stay unreachable are listed in
// Outcome.Unresolved.
func (e *Engine) Run(ctx context.Context, prog *dol.Program) (*Outcome, error) {
	return e.RunLogged(ctx, prog, nil)
}

// RunLogged is Run with a durable-coordinator journal attached: the
// engine reports prepared participants, synchronization-point decisions
// (before delivering them — the write-ahead rule), and terminal task
// outcomes through log. A nil log disables journaling.
func (e *Engine) RunLogged(ctx context.Context, prog *dol.Program, log TxLog) (*Outcome, error) {
	r := &run{
		eng:   e,
		ctx:   ctx,
		conns: make(map[string]*conn),
		tasks: make(map[string]*taskRT),
		out:   &Outcome{Status: -1, Tasks: make(map[string]*TaskInfo), Ships: make(map[*dol.ShipStmt]ShipInfo)},
		log:   log,
	}
	err := r.execStmts(prog.Stmts)
	r.wg.Wait()
	r.recoverInDoubt()
	// Close any connection the program forgot, rolling back leftovers.
	for _, c := range r.conns {
		c.mu.Lock()
		if c.session != nil {
			_ = c.session.Close()
			c.session = nil
		}
		c.mu.Unlock()
	}
	for _, info := range r.out.Tasks {
		mTaskOutcomes.With(info.Status.String()).Inc()
	}
	if err != nil {
		return r.out, err
	}
	return r.out, nil
}

func (r *run) execStmts(stmts []dol.Stmt) error {
	for _, s := range stmts {
		if err := r.execStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (r *run) execStmt(s dol.Stmt) error {
	switch st := s.(type) {
	case *dol.OpenStmt:
		client, err := r.eng.dir.ResolveContext(r.ctx, st.Site)
		if err != nil {
			return err
		}
		sess, err := client.Open(r.ctx, st.Database)
		if err != nil {
			return fmt.Errorf("dolengine: open %s at %s: %w", st.Database, st.Site, err)
		}
		r.conns[st.Alias] = &conn{session: sess, site: st.Site, service: client.ServiceName(), db: st.Database}
		return nil

	case *dol.TaskStmt:
		c, ok := r.conns[st.Conn]
		if !ok {
			return fmt.Errorf("%w: %s (task %s)", ErrUnknownConn, st.Conn, st.Name)
		}
		rt := &taskRT{
			stmt: st,
			info: &TaskInfo{Status: dol.StatusNotRun, Database: c.db, Conn: st.Conn},
			done: make(chan struct{}),
		}
		for _, dep := range st.After {
			t, ok := r.tasks[dep]
			if !ok {
				return fmt.Errorf("%w: %s (AFTER of %s)", ErrUnknownTask, dep, st.Name)
			}
			rt.deps = append(rt.deps, t)
		}
		r.tasks[st.Name] = rt
		r.out.Tasks[st.Name] = rt.info
		r.wg.Add(1)
		go r.runTask(rt, c)
		return nil

	case *dol.ShipStmt:
		return r.execShip(st)

	case *dol.IfStmt:
		for _, name := range dol.TasksIn(st.Cond) {
			if err := r.waitTask(name); err != nil {
				return err
			}
		}
		holds := dol.Eval(st.Cond,
			func(task string) dol.TaskStatus {
				if t, ok := r.tasks[task]; ok {
					return t.status()
				}
				return dol.StatusNotRun
			},
			func(task string) int {
				if t, ok := r.tasks[task]; ok {
					t.mu.Lock()
					defer t.mu.Unlock()
					return t.info.RowsAffected
				}
				return 0
			})
		if holds {
			return r.execStmts(st.Then)
		}
		return r.execStmts(st.Else)

	case *dol.CommitStmt:
		// All named tasks must settle before the decision is journaled,
		// so the decision names every vote among them.
		for _, name := range st.Tasks {
			if err := r.waitTask(name); err != nil {
				return err
			}
		}
		dsp, _ := obs.StartSpan(r.ctx, "2pc:decision", obs.Kind2PC)
		dsp.SetAttr("decision", "commit")
		defer dsp.End()
		if r.log != nil {
			if err := r.log.Decision(true, st.Tasks, r.votesOf(st.Tasks)); err != nil {
				// The write-ahead rule: a commit decision that is not on
				// stable storage must never be delivered. Abort the named
				// tasks — presumed abort keeps that safe without a log.
				r.decide(st.Tasks, r.abortTask)
				return fmt.Errorf("dolengine: commit decision not durable: %w", err)
			}
		}
		r.decide(st.Tasks, r.commitTask)
		return nil

	case *dol.AbortStmt:
		for _, name := range st.Tasks {
			if err := r.waitTask(name); err != nil {
				return err
			}
		}
		if r.log != nil {
			// Presumed abort: recovery rolls back any task without a
			// logged commit decision, so a failed abort record is safe
			// to ignore.
			_ = r.log.Decision(false, st.Tasks, r.votesOf(st.Tasks))
		}
		r.decide(st.Tasks, r.abortTask)
		return nil

	case *dol.StatusStmt:
		r.out.Status = st.Code
		return nil

	case *dol.CloseStmt:
		for _, alias := range st.Aliases {
			c, ok := r.conns[alias]
			if !ok {
				return fmt.Errorf("%w: %s", ErrUnknownConn, alias)
			}
			// Wait for tasks using this connection before closing it.
			for _, t := range r.tasks {
				if t.stmt.Conn == alias {
					<-t.done
				}
			}
			c.mu.Lock()
			if c.session != nil {
				_ = c.session.Close()
				c.session = nil
			}
			c.mu.Unlock()
		}
		return nil

	default:
		return fmt.Errorf("dolengine: unsupported statement %T", s)
	}
}

// runTask executes one task's body on its connection.
func (r *run) runTask(rt *taskRT, c *conn) {
	defer r.wg.Done()
	defer close(rt.done)

	// Honor AFTER dependencies.
	for _, dep := range rt.deps {
		<-dep.done
	}
	rt.setStatus(dol.StatusRunning, nil)
	start := time.Now()

	// The task span covers the task's subquery work; wire call spans made
	// through sctx parent under it. 2PC phases get their own child spans.
	span, sctx := obs.StartSpan(r.ctx, "task:"+rt.stmt.Name, obs.KindTask)
	span.SetAttr("conn", rt.stmt.Conn)
	span.SetAttr("db", c.db)
	defer func() {
		st := rt.status()
		span.SetAttr("status", st.String())
		span.End()
		mTaskLatency.With(st.String()).ObserveSince(start)
	}()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.session == nil {
		rt.setStatus(dol.StatusError, fmt.Errorf("dolengine: connection %s closed", rt.stmt.Conn))
		r.logOutcome(rt)
		return
	}
	// The last statement tells the session how the transaction ends, so
	// a remote session carries the commit or the vote in that exec's
	// request; the Commit or Prepare below then costs no round.
	ending := wire.ReqCommit
	if rt.stmt.NoCommit {
		ending = wire.ReqPrepare
	}
	for i, stmt := range rt.stmt.Body {
		ectx := sctx
		last := i == len(rt.stmt.Body)-1
		if last {
			ectx = lam.WithEnding(sctx, ending)
		}
		res, err := c.session.Exec(ectx, sqlparser.Deparse(stmt))
		if err != nil {
			if last && rt.stmt.NoCommit {
				r.voteFailed(rt, c.session, err)
				return
			}
			rt.setStatus(dol.StatusAborted, err)
			r.logOutcome(rt)
			return
		}
		rt.mu.Lock()
		// Keep the last row-producing result: cleanup statements (e.g. a
		// trailing DROP of shipped temp tables) must not mask the query
		// result the plan exists to produce.
		if len(res.Columns) > 0 || rt.info.Result == nil {
			rt.info.Result = res
		}
		if res.Plan != nil {
			rt.info.Plan = res.Plan
		}
		rt.info.RowsAffected += res.RowsAffected
		rt.info.Elapsed = time.Since(start)
		rt.mu.Unlock()
	}
	if rt.stmt.NoCommit {
		psp, pctx := obs.StartSpan(sctx, "prepare:"+rt.stmt.Name, obs.Kind2PC)
		err := c.session.Prepare(pctx)
		psp.EndErr(err)
		if err != nil {
			r.voteFailed(rt, c.session, err)
			return
		}
		rt.setStatus(dol.StatusPrepared, nil)
		r.notePrepared(rt, c)
		return
	}
	csp, cctx := obs.StartSpan(sctx, "commit:"+rt.stmt.Name, obs.Kind2PC)
	err := c.session.Commit(cctx)
	csp.EndErr(err)
	if err != nil {
		rt.setStatus(dol.StatusAborted, err)
		r.logOutcome(rt)
		return
	}
	rt.setStatus(dol.StatusCommitted, nil)
	r.logOutcome(rt)
}

// voteFailed settles a task whose vote did not come back, from its
// Prepare or from the last exec that carried it. A transport failure
// leaves the vote unknown: the LAM may have prepared and parked the
// session. It is recorded as an in-doubt rollback — the plan's IF sees
// the task as not-prepared and aborts the unit, so rollback is the
// synchronization-point decision. Any other failure is a definite no.
func (r *run) voteFailed(rt *taskRT, sess lam.Session, err error) {
	if wire.Transient(err) {
		rt.markInDoubt(sess, false, err)
		return
	}
	rt.setStatus(dol.StatusAborted, err)
	r.logOutcome(rt)
}

func (r *run) waitTask(name string) error {
	t, ok := r.tasks[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	<-t.done
	return nil
}

// decide delivers a synchronization-point decision: deliver (commitTask
// or abortTask) runs for every named task, one goroutine per connection,
// each walking its connection's tasks in plan order. Once the decision
// is durable the participants' phase-2 messages do not depend on each
// other, so the round costs the slowest participant, not the sum of
// them. The names must already be validated (waitTask).
func (r *run) decide(names []string, deliver func(name string) error) {
	var byConn [][]string
	slot := make(map[string]int)
	for _, name := range names {
		conn := r.tasks[name].stmt.Conn
		i, ok := slot[conn]
		if !ok {
			i = len(byConn)
			slot[conn] = i
			byConn = append(byConn, nil)
		}
		byConn[i] = append(byConn[i], name)
	}
	fanOut(len(byConn), func(i int) {
		for _, name := range byConn[i] {
			_ = deliver(name)
		}
	})
}

// unanswered reports whether a decision sent to a prepared participant
// failed without an answer from its server: lost in transport, refused
// by a connection an earlier call retired (wire.ErrConnBroken), or cut
// short by the caller's cancellation. The participant may still be
// prepared, so only an error the server answered is definite; anything
// else leaves the task in doubt for the recovery loop, which delivers
// the decision on a context of its own.
func unanswered(err error) bool {
	return wire.Transient(err) || errors.Is(err, wire.ErrConnBroken) || errors.Is(err, context.Canceled)
}

// commitTask commits a prepared task. Committing an already committed
// task is a no-op; committing an aborted task leaves it aborted.
func (r *run) commitTask(name string) error {
	t, ok := r.tasks[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	<-t.done
	if t.status() != dol.StatusPrepared {
		return nil
	}
	c := r.conns[t.stmt.Conn]
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.session == nil {
		t.setStatus(dol.StatusError, fmt.Errorf("dolengine: connection %s closed before commit", t.stmt.Conn))
		r.logOutcome(t)
		return nil
	}
	sp, sctx := obs.StartSpan(r.ctx, "commit:"+name, obs.Kind2PC)
	err := c.session.Commit(sctx)
	sp.EndErr(err)
	if err != nil {
		// The decision was COMMIT. Unless the server answered, the outcome
		// is unknown — never report Aborted (that would make the global
		// state silently Incorrect); record in-doubt for the recovery loop.
		if unanswered(err) {
			t.markInDoubt(c.session, true, err)
			return nil
		}
		t.setStatus(dol.StatusAborted, err)
		r.logOutcome(t)
		return nil
	}
	t.setStatus(dol.StatusCommitted, nil)
	r.logOutcome(t)
	return nil
}

// abortTask rolls back a prepared or running task's session. Aborting a
// committed task is a no-op (compensation handles that case).
func (r *run) abortTask(name string) error {
	t, ok := r.tasks[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	<-t.done
	st := t.status()
	if st != dol.StatusPrepared {
		return nil
	}
	c := r.conns[t.stmt.Conn]
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.session == nil {
		return nil
	}
	sp, sctx := obs.StartSpan(r.ctx, "rollback:"+name, obs.Kind2PC)
	err := c.session.Rollback(sctx)
	sp.EndErr(err)
	if err != nil {
		if unanswered(err) {
			t.markInDoubt(c.session, false, err)
			return nil
		}
		t.setStatus(dol.StatusError, err)
		r.logOutcome(t)
		return nil
	}
	t.setStatus(dol.StatusAborted, nil)
	r.logOutcome(t)
	return nil
}

// shipBatchRows is how many rows one Load round trip carries.
const shipBatchRows = 2048

// execShip creates the destination table and copies the source task's
// result rows into it, inside the destination session's open transaction.
// The table is created with CREATE TEMPORARY TABLE: it lives in that
// session's memory, where no other session, no file and no catalog sees
// it, and its DDL is a class of its own that no 2PC server autocommits,
// so the Ingres DDL quirk never commits the unit early. The rows travel
// typed, as Session.Load batches, never as SQL text. The whole source
// result is held before the first batch leaves: shipping does not
// overlap the source task, and no row is filtered out on the way.
func (r *run) execShip(st *dol.ShipStmt) error {
	src, ok := r.tasks[st.Task]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, st.Task)
	}
	<-src.done
	status := src.status()
	if status != dol.StatusPrepared && status != dol.StatusCommitted {
		return fmt.Errorf("%w: task %s is %s", ErrShipFailed, st.Task, status)
	}
	c, ok := r.conns[st.To]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownConn, st.To)
	}
	src.mu.Lock()
	result := src.info.Result
	src.mu.Unlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.session == nil {
		return fmt.Errorf("dolengine: connection %s closed before ship", st.To)
	}
	start := time.Now()
	var info ShipInfo
	defer func() {
		info.Elapsed = time.Since(start)
		r.out.Ships[st] = info
		mShipRows.With(c.service).Add(int64(info.Rows))
		mShipBatches.With(c.service).Add(int64(info.Batches))
	}()
	create := &sqlparser.CreateTableStmt{Table: sqlparser.Name(st.Table), Columns: st.Columns, Temporary: true}
	if _, err := c.session.Exec(r.ctx, sqlparser.Deparse(create)); err != nil {
		return fmt.Errorf("dolengine: ship create: %w", err)
	}
	if result == nil {
		return nil
	}
	for rows := result.Rows; len(rows) > 0; {
		batch := rows[:min(len(rows), shipBatchRows)]
		rows = rows[len(batch):]
		n, err := c.session.Load(r.ctx, st.Table, batch)
		if err != nil {
			return fmt.Errorf("dolengine: ship load: %w", err)
		}
		info.Rows += n
		info.Batches++
	}
	return nil
}
