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
	"sync"
	"time"

	"msql/internal/dol"
	"msql/internal/lam"
	"msql/internal/ldbms"
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
// directory of §4.1.
type Directory interface {
	Resolve(site string) (lam.Client, error)
}

// MapDirectory is a Directory backed by a map.
type MapDirectory map[string]lam.Client

// Resolve implements Directory.
func (m MapDirectory) Resolve(site string) (lam.Client, error) {
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
// recovery pass) resolve it with lam.Resolve.
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
// participants entered the prepared-to-commit window, which
// synchronization-point decisions were taken, and each task's terminal
// outcome. A write-ahead journal (internal/mtlog, wired up by the core
// layer) implements it; Decision must make the record durable before
// returning, because the engine delivers the first COMMIT only after it
// returns successfully.
type TxLog interface {
	// TaskPrepared records a participant in the prepared state together
	// with its re-attach coordinates (empty addr = in-process session
	// that cannot outlive the coordinator).
	TaskPrepared(task, addr string, sessionID int64)
	// Decision records the commit/rollback decision for a set of tasks.
	// A commit decision that cannot be made durable must fail: the
	// engine then aborts instead of delivering an unlogged commit.
	Decision(commit bool, tasks []string) error
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

	// resolve is lam.Resolve, injectable for tests.
	resolve func(ctx context.Context, addr string, sessionID int64, commit bool) (ldbms.SessionState, error)
}

// New returns an engine over a service directory.
func New(dir Directory) *Engine {
	return &Engine{
		dir:            dir,
		Recovery:       lam.RetryPolicy{Attempts: 4, BaseDelay: 25 * time.Millisecond, MaxDelay: 500 * time.Millisecond},
		RecoverTimeout: 2 * time.Second,
		resolve:        lam.Resolve,
	}
}

// conn is one open connection (session) with serialized task access. A
// conn with a nil session and a non-nil openErr is a degraded stub for a
// breaker-open site: its tasks fail with openErr instead of running.
type conn struct {
	mu      sync.Mutex
	session lam.Session
	service string // the site's service name, for per-destination metrics
	db      string
	openErr error
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

// run carries the state of one program execution.
type run struct {
	eng   *Engine
	ctx   context.Context
	conns map[string]*conn
	tasks map[string]*taskRT
	out   *Outcome
	log   TxLog // nil when the plan is not journaled
	wg    sync.WaitGroup
}

// logPrepared notifies the journal of a prepared participant.
func (r *run) logPrepared(rt *taskRT, sess lam.Session) {
	if r.log == nil {
		return
	}
	addr, id := "", int64(0)
	if rec, ok := sess.(lam.Recoverable); ok {
		addr, id = rec.RecoveryInfo()
	}
	r.log.TaskPrepared(rt.stmt.Name, addr, id)
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

// recoverParallelism bounds how many in-doubt participants a recovery
// sweep contacts concurrently. Serial sweeps do not scale past the
// three-site demo: at a 50-site fan-out one dead participant's full
// backoff sequence would stall every site behind it, so sweeps fan out
// bounded-parallel and the jittered RetryPolicy backoff decorrelates
// the retry instants across sites.
const recoverParallelism = 16

// ResolveParticipant is the termination protocol for one in-doubt
// participant: reconnect, wire.ReqAttach, deliver the recorded decision
// (lam.Resolve), paced by the engine's Recovery policy with each attempt
// bounded by RecoverTimeout. Transient transport failures — including
// connection refused while the participant restarts — are retried with
// backoff. wire.ErrNoSession is an answer, not a failure: a participant
// with no record of the session either never voted or was acknowledged
// and allowed to forget, so the recorded decision (presumed abort when
// it was rollback) is the outcome.
func (e *Engine) ResolveParticipant(ctx context.Context, addr string, sessionID int64, commit bool) (ldbms.SessionState, error) {
	var last error
	for attempt := 0; attempt <= e.Recovery.Attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(e.Recovery.Backoff(attempt)):
			}
		}
		cctx, cancel := context.WithTimeout(ctx, e.RecoverTimeout)
		st, err := e.resolve(cctx, addr, sessionID, commit)
		cancel()
		if err == nil {
			return st, nil
		}
		if errors.Is(err, wire.ErrNoSession) {
			if commit {
				return ldbms.StateCommitted, nil
			}
			return ldbms.StateAborted, nil
		}
		if !wire.Transient(err) {
			return 0, err
		}
		last = err
	}
	return 0, last
}

// recoverInDoubt is the coordinator's bounded recovery loop: each
// in-doubt participant is driven to its recorded decision with
// ResolveParticipant. Delivering decisions for prepared transactions
// must be attempted even when the plan's deadline has expired, so the
// loop is bounded by the engine's Recovery policy and RecoverTimeout
// instead. Participants are contacted in parallel (recoverParallelism
// at a time) so one unreachable site's backoff does not serialize the
// rest of the sweep.
func (r *run) recoverInDoubt() {
	type pendingTask struct {
		name string
		rt   *taskRT
	}
	var pending []pendingTask
	for name, rt := range r.tasks {
		rt.mu.Lock()
		ok := rt.info.Status == dol.StatusInDoubt && rt.recoverable
		rt.mu.Unlock()
		if ok {
			pending = append(pending, pendingTask{name: name, rt: rt})
		}
	}
	if len(pending) == 0 {
		return
	}
	var (
		wg    sync.WaitGroup
		sem   = make(chan struct{}, recoverParallelism)
		outMu sync.Mutex
	)
	for _, p := range pending {
		wg.Add(1)
		sem <- struct{}{}
		go func(name string, rt *taskRT) {
			defer func() { <-sem; wg.Done() }()
			rt.mu.Lock()
			addr, id, commit := rt.recoverAddr, rt.recoverID, rt.recoverCommit
			db, connName := rt.info.Database, rt.info.Conn
			rt.mu.Unlock()
			rsp, _ := obs.StartSpan(r.ctx, "resolve:"+name, obs.KindRecovery)
			rsp.SetAttr("site", addr)
			// A fresh context: the plan's deadline may already have expired.
			st, err := r.eng.ResolveParticipant(context.Background(), addr, id, commit)
			resolved := err == nil
			if resolved {
				if st == ldbms.StateCommitted {
					rt.setStatus(dol.StatusCommitted, nil)
				} else {
					rt.setStatus(dol.StatusAborted, nil)
				}
				r.logOutcome(rt)
			}
			rt.mu.Lock()
			enteredAt := rt.inDoubtAt
			rt.mu.Unlock()
			if resolved {
				if !enteredAt.IsZero() {
					mInDoubtDwell.ObserveSince(enteredAt)
				}
				rsp.End()
			} else {
				mInDoubtUnresolved.Inc()
				rsp.EndErr(fmt.Errorf("dolengine: participant unreachable"))
				outMu.Lock()
				r.out.Unresolved = append(r.out.Unresolved, InDoubt{
					Task: name, Conn: connName, Database: db,
					Addr: addr, SessionID: id, Commit: commit,
				})
				outMu.Unlock()
			}
		}(p.name, p.rt)
	}
	wg.Wait()
}

// recoveryOf extracts the in-doubt recovery handle of a session, looking
// through wrappers that expose it by delegation. Wrappers forward the
// method unconditionally, so a handle with no re-attach address (an
// in-process session) does not count as recoverable.
func recoveryOf(s lam.Session) (lam.Recoverable, bool) {
	rec, ok := s.(lam.Recoverable)
	if !ok {
		return nil, false
	}
	if addr, _ := rec.RecoveryInfo(); addr == "" {
		return nil, false
	}
	return rec, true
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
		client, err := r.eng.dir.Resolve(st.Site)
		if err != nil {
			return err
		}
		sess, err := client.Open(r.ctx, st.Database)
		if err != nil {
			// A breaker-open site is degraded, not fatal to the whole
			// plan: keep the connection as a stub that fails its tasks,
			// so tasks on healthy sites still run and the caller can
			// decide (per the vital set) whether partial results stand.
			if errors.Is(err, lam.ErrBreakerOpen) {
				r.conns[st.Alias] = &conn{db: st.Database, openErr: err}
				return nil
			}
			return fmt.Errorf("dolengine: open %s at %s: %w", st.Database, st.Site, err)
		}
		r.conns[st.Alias] = &conn{session: sess, service: client.ServiceName(), db: st.Database}
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
		// so every prepared record precedes the decision record.
		for _, name := range st.Tasks {
			if err := r.waitTask(name); err != nil {
				return err
			}
		}
		dsp, _ := obs.StartSpan(r.ctx, "2pc:decision", obs.Kind2PC)
		dsp.SetAttr("decision", "commit")
		defer dsp.End()
		if r.log != nil {
			if err := r.log.Decision(true, st.Tasks); err != nil {
				// The write-ahead rule: a commit decision that is not on
				// stable storage must never be delivered. Abort the named
				// tasks — presumed abort keeps that safe without a log.
				for _, name := range st.Tasks {
					_ = r.abortTask(name)
				}
				return fmt.Errorf("dolengine: commit decision not durable: %w", err)
			}
		}
		for _, name := range st.Tasks {
			if err := r.commitTask(name); err != nil {
				return err
			}
		}
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
			_ = r.log.Decision(false, st.Tasks)
		}
		for _, name := range st.Tasks {
			if err := r.abortTask(name); err != nil {
				return err
			}
		}
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
		err := c.openErr
		if err == nil {
			err = fmt.Errorf("dolengine: connection %s closed", rt.stmt.Conn)
		}
		rt.setStatus(dol.StatusError, err)
		r.logOutcome(rt)
		return
	}
	for _, stmt := range rt.stmt.Body {
		res, err := c.session.Exec(sctx, sqlparser.Deparse(stmt))
		if err != nil {
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
			// A transport failure leaves the vote unknown: the LAM may have
			// prepared and parked the session. Record an in-doubt rollback —
			// the plan's IF sees the task as not-prepared and aborts the
			// unit, so rollback is the synchronization-point decision.
			if rec, ok := recoveryOf(c.session); ok && wire.Transient(err) {
				rt.markInDoubt(rec, false, err)
				return
			}
			rt.setStatus(dol.StatusAborted, err)
			r.logOutcome(rt)
			return
		}
		rt.setStatus(dol.StatusPrepared, nil)
		r.logPrepared(rt, c.session)
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

func (r *run) waitTask(name string) error {
	t, ok := r.tasks[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownTask, name)
	}
	<-t.done
	return nil
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
		// The decision was COMMIT. If the transport failed the outcome is
		// unknown — never report Aborted (that would make the global state
		// silently Incorrect); record in-doubt for the recovery loop.
		if rec, ok := recoveryOf(c.session); ok && wire.Transient(err) {
			t.markInDoubt(rec, true, err)
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
		if rec, ok := recoveryOf(c.session); ok && wire.Transient(err) {
			t.markInDoubt(rec, false, err)
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
// The table is created with a CREATE TABLE statement (so the DDL class's
// autocommit quirks apply as for any other); the rows travel typed, as
// Session.Load batches, never as SQL text. The whole source result is
// held before the first batch leaves: shipping does not overlap the
// source task, and no row is filtered out on the way.
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
	create := &sqlparser.CreateTableStmt{Table: sqlparser.Name(st.Table), Columns: st.Columns}
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
