package core

import (
	"context"
	"fmt"
	"time"

	"msql/internal/catalog"
	"msql/internal/dol"
	"msql/internal/dolengine"
	"msql/internal/msqlparser"
	"msql/internal/obs"
	"msql/internal/semvar"
	"msql/internal/sqlparser"
	"msql/internal/translate"
)

// Session is one client's script-execution context on a shared
// Federation: the USE scope, LET bindings, the pending transaction unit,
// and trigger re-entrancy state travel with the session while the
// directories, LAM clients, DOL engine, and coordinator journal are
// shared. Independent sessions execute concurrently — the engine runs
// their plans in parallel and their journal decisions share fsyncs
// — but a single Session must be used from one goroutine at a time (or
// externally serialized, as the coordinator server does per
// connection).
type Session struct {
	f      *Federation
	tenant string

	scope     []semvar.ScopeEntry
	lets      []msqlparser.LetBinding
	unit      []translate.UnitQuery
	inTrigger bool
}

// Federation returns the federation the session executes against.
func (s *Session) Federation() *Federation { return s.f }

// Tenant returns the session's admission-control identity.
func (s *Session) Tenant() string { return s.tenant }

// Scope returns the current USE scope.
func (s *Session) Scope() []semvar.ScopeEntry {
	return append([]semvar.ScopeEntry(nil), s.scope...)
}

// ExecScript parses and executes an MSQL script, returning one Result
// per produced outcome (statements and synchronization points).
// Execution stops at the first error; results produced so far are
// returned.
func (s *Session) ExecScript(src string) ([]*Result, error) {
	return s.ExecScriptContext(context.Background(), src)
}

// ExecScriptContext is ExecScript under a context: the deadline bounds
// every remote LAM call the script makes, and cancellation fails
// in-flight subqueries. In-doubt resolution after a lost connection runs
// on its own bounded budget (the engine's recovery policy), not ctx —
// commit/rollback decisions for prepared participants must be delivered
// even when the script deadline has expired.
//
// When the federation has an admission controller, each statement (and
// the end-of-script synchronization) first acquires an execution slot
// under the session's tenant; saturation surfaces as an error wrapping
// admit.ErrOverload before any site is touched. A federation StmtTimeout
// additionally bounds each statement's execution.
func (s *Session) ExecScriptContext(ctx context.Context, src string) ([]*Result, error) {
	f := s.f
	// Each script call gets one trace unless the caller already opened
	// one; spans from every layer below (translate, plan, engine tasks,
	// wire calls, 2PC phases) accumulate in it.
	trace := obs.TraceFrom(ctx)
	if trace == nil && f.Tracer != nil {
		trace = f.Tracer.Start("script")
		ctx = obs.WithTrace(ctx, trace)
		defer trace.Finish()
	}

	psp, _ := obs.StartSpan(ctx, "parse", obs.KindParse)
	script, err := msqlparser.Parse(src)
	psp.EndErr(err)
	if err != nil {
		return nil, err
	}
	var results []*Result
	add := func(elapsed time.Duration, rs ...*Result) {
		for _, r := range rs {
			if r != nil {
				if r.Elapsed == 0 {
					r.Elapsed = elapsed
				}
				r.TraceID = trace.ID()
				results = append(results, r)
			}
		}
	}
	for _, stmt := range script.Stmts {
		if f.draining() {
			// Stop at a statement boundary: synchronize what is pending so
			// no unit is abandoned inside the prepared-to-commit window,
			// then report the drain.
			start := time.Now()
			r, ferr := s.gatedFlush(ctx)
			add(time.Since(start), r)
			if ferr != nil {
				return results, ferr
			}
			return results, ErrDrained
		}
		verb := verbOf(stmt)
		qid := obs.DefaultQueries.Begin(obs.QueryRecord{
			TraceID: trace.ID(),
			Tenant:  s.tenant,
			Verb:    verb,
			SQL:     stmtText(stmt),
		})
		ssp, sctx := obs.StartSpan(ctx, "stmt:"+verb, obs.KindStatement)
		sctx = obs.WithQueryID(sctx, qid)
		start := time.Now()
		rs, err := s.admitted(sctx, func(actx context.Context) ([]*Result, error) {
			return s.execStmt(actx, stmt)
		})
		ssp.EndErr(err)
		elapsed := time.Since(start)
		mStatements.With(verb).Inc()
		mStmtLatency.With(tenantLabel(s.tenant), verb).Observe(elapsed.Seconds())
		var plan *obs.PlanNode
		for _, r := range rs {
			if r != nil && r.Plan != nil {
				plan = r.Plan
			}
		}
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		if rec, ok := obs.DefaultQueries.Finish(qid, elapsed, plan, errMsg); ok {
			obs.SlowLog().Observe(&rec)
		}
		add(elapsed, rs...)
		if err != nil {
			return results, err
		}
	}
	// The end-of-script synchronization is where queued DML actually runs
	// (and where the journal assigns its MTID), so it gets its own entry
	// in the query inventory and the slow-query log.
	var qid uint64
	if len(s.unit) > 0 {
		qid = obs.DefaultQueries.Begin(obs.QueryRecord{
			TraceID: trace.ID(),
			Tenant:  s.tenant,
			Verb:    "sync",
			SQL:     fmt.Sprintf("SYNCHRONIZE (%d queued statements)", len(s.unit)),
		})
		ctx = obs.WithQueryID(ctx, qid)
	}
	start := time.Now()
	r, err := s.gatedFlush(ctx)
	elapsed := time.Since(start)
	if qid != 0 {
		mStmtLatency.With(tenantLabel(s.tenant), "sync").Observe(elapsed.Seconds())
		errMsg := ""
		if err != nil {
			errMsg = err.Error()
		}
		if rec, ok := obs.DefaultQueries.Finish(qid, elapsed, nil, errMsg); ok {
			obs.SlowLog().Observe(&rec)
		}
	}
	add(elapsed, r)
	return results, err
}

// admitted runs fn under an admission slot (when a controller is
// installed) and the federation's statement timeout (when set). The
// slot is held for the statement's full execution, including any
// synchronization point it triggers.
func (s *Session) admitted(ctx context.Context, fn func(context.Context) ([]*Result, error)) ([]*Result, error) {
	release, err := s.f.admitCtl().Acquire(ctx, s.tenant)
	if err != nil {
		return nil, err
	}
	defer release()
	if t := s.f.StmtTimeout; t > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, t)
		defer cancel()
	}
	return fn(ctx)
}

// gatedFlush is flush behind the admission gate — the end-of-script
// synchronization competes for capacity like any statement.
func (s *Session) gatedFlush(ctx context.Context) (*Result, error) {
	if len(s.unit) == 0 {
		return nil, nil
	}
	rs, err := s.admitted(ctx, func(actx context.Context) ([]*Result, error) {
		r, err := s.flush(actx)
		return resultList(r), err
	})
	if len(rs) > 0 {
		return rs[0], err
	}
	return nil, err
}

// execStmt executes one statement, returning zero or more results (a
// statement that triggers a synchronization point yields the sync result
// first).
func (s *Session) execStmt(ctx context.Context, stmt msqlparser.Stmt) ([]*Result, error) {
	f := s.f
	switch st := stmt.(type) {
	case *msqlparser.UseStmt:
		sync, err := s.flush(ctx)
		if err != nil {
			return resultList(sync), err
		}
		entries, err := f.expandScope(semvar.ScopeFromUse(st))
		if err != nil {
			return resultList(sync), err
		}
		if st.Current {
			s.scope = dedupeScope(append(s.scope, entries...))
		} else {
			s.scope = dedupeScope(entries)
		}
		s.lets = nil
		return resultList(sync), nil

	case *msqlparser.LetStmt:
		s.lets = append(s.lets, st.Bindings...)
		return nil, nil

	case *msqlparser.QueryStmt:
		return s.execQuery(ctx, st)

	case *msqlparser.ExplainStmt:
		// Like a SELECT, EXPLAIN executes immediately without forcing a
		// synchronization of the pending unit — unless it is an EXPLAIN
		// ANALYZE of a write, which commits as a unit of its own.
		return s.execExplain(ctx, st)

	case *msqlparser.CommitStmt:
		r, err := s.sync(ctx, translate.SyncCommit)
		return resultList(r), err

	case *msqlparser.RollbackStmt:
		r, err := s.sync(ctx, translate.SyncRollback)
		return resultList(r), err

	case *msqlparser.MultiTxStmt:
		sync, err := s.flush(ctx)
		if err != nil {
			return resultList(sync), err
		}
		r, err := s.execPlan(ctx, &Result{Kind: KindMultiTx}, nil, func() (*dol.Program, *translate.Meta, error) {
			return f.tctx.TranslateMultiTx(st)
		})
		return resultList(sync, r), err

	case *msqlparser.IncorporateStmt:
		entry := catalog.ServiceEntry{
			Name:           st.Service,
			Site:           st.Site,
			Connect:        st.Connect,
			AutoCommitOnly: st.AutoCommitOnly,
			DDLCommit:      st.DDLCommit,
		}
		if err := f.checkIncorporate(ctx, &entry); err != nil {
			return nil, err
		}
		f.AD.Incorporate(entry)
		return resultList(&Result{Kind: KindIncorporate}), nil

	case *msqlparser.ImportStmt:
		client, err := f.clientFor(ctx, st.Service)
		if err != nil {
			return nil, err
		}
		spec := catalog.ImportSpec{Table: st.Table, View: st.View, Columns: st.Columns}
		if err := catalog.ImportDatabase(ctx, f.GDD, f.AD, client, st.Database, st.Service, spec); err != nil {
			return nil, err
		}
		return resultList(&Result{Kind: KindImport}), nil

	case *msqlparser.CreateMultidatabaseStmt:
		if err := f.GDD.DefineMultidatabase(st.Name, st.Members); err != nil {
			return nil, err
		}
		return resultList(&Result{Kind: KindNoop}), nil

	case *msqlparser.DropMultidatabaseStmt:
		if err := f.GDD.DropMultidatabase(st.Name); err != nil {
			return nil, err
		}
		return resultList(&Result{Kind: KindNoop}), nil

	case *msqlparser.CreateMultiviewStmt:
		if len(s.scope) == 0 {
			return nil, fmt.Errorf("core: CREATE MULTIVIEW captures the current scope — issue USE first")
		}
		f.defineMultiview(st.Name, &storedView{
			scope: append([]semvar.ScopeEntry(nil), s.scope...),
			lets:  append([]msqlparser.LetBinding(nil), s.lets...),
			body:  st.Body,
		})
		return resultList(&Result{Kind: KindNoop}), nil

	case *msqlparser.DropMultiviewStmt:
		if err := f.dropMultiview(st.Name); err != nil {
			return nil, err
		}
		return resultList(&Result{Kind: KindNoop}), nil

	case *msqlparser.CreateTriggerStmt:
		if len(s.scope) == 0 {
			return nil, fmt.Errorf("core: CREATE TRIGGER captures the current scope — issue USE first")
		}
		f.defineTrigger(st.Name, &storedTrigger{
			name:     st.Name,
			database: st.Database,
			event:    st.Event,
			scope:    append([]semvar.ScopeEntry(nil), s.scope...),
			lets:     append([]msqlparser.LetBinding(nil), s.lets...),
			query:    st.Body,
		})
		return resultList(&Result{Kind: KindNoop}), nil

	case *msqlparser.DropTriggerStmt:
		if err := f.dropTrigger(st.Name); err != nil {
			return nil, err
		}
		return resultList(&Result{Kind: KindNoop}), nil

	default:
		return nil, fmt.Errorf("%w: %T", ErrUnsupported, stmt)
	}
}

// execQuery routes one manipulation statement.
func (s *Session) execQuery(ctx context.Context, q *msqlparser.QueryStmt) ([]*Result, error) {
	switch st := q.Body.(type) {
	case *sqlparser.CreateDatabaseStmt, *sqlparser.DropDatabaseStmt:
		return nil, fmt.Errorf("%w: CREATE/DROP DATABASE — create the database on its service and IMPORT it", ErrUnsupported)
	case *sqlparser.CreateTableStmt:
		if st.Temporary {
			return nil, fmt.Errorf("%w: CREATE TEMPORARY TABLE — a temporary table lives in one site session, which ends with its plan", ErrUnsupported)
		}
	}
	if _, ok := q.Body.(*sqlparser.SelectStmt); ok {
		r, err := s.execPlan(ctx, &Result{Kind: KindSelect}, nil, func() (*dol.Program, *translate.Meta, error) {
			return s.translateSelect(q)
		})
		return resultList(r), err
	}
	if len(s.scope) == 0 {
		return nil, translate.ErrNoScope
	}
	if semvar.IsGlobalQuery(q.Body, s.scope) {
		// Cross-database DML forms its own unit.
		sync, err := s.flush(ctx)
		if err != nil {
			return resultList(sync), err
		}
		r, err := s.execPlan(ctx, &Result{Kind: KindGlobalDML}, nil, func() (*dol.Program, *translate.Meta, error) {
			return s.f.tctx.TranslateQuery(s.scope, s.lets, q)
		})
		return resultList(sync, r), err
	}
	s.unit = append(s.unit, translate.UnitQuery{
		Lets:  append([]msqlparser.LetBinding(nil), s.lets...),
		Query: q,
	})
	return nil, nil
}

// Flush synchronizes the pending unit in commit mode. It returns nil
// when nothing is pending.
func (s *Session) Flush() (*Result, error) {
	return s.flush(context.Background())
}

func (s *Session) flush(ctx context.Context) (*Result, error) {
	if len(s.unit) == 0 {
		return nil, nil
	}
	return s.sync(ctx, translate.SyncCommit)
}

// sync translates and runs the pending unit.
func (s *Session) sync(ctx context.Context, mode translate.SyncMode) (*Result, error) {
	unit := s.unit
	s.unit = nil
	if len(unit) == 0 {
		return nil, nil
	}
	return s.execPlan(ctx, &Result{Kind: KindSync, Mode: mode}, nil, func() (*dol.Program, *translate.Meta, error) {
		return s.f.tctx.TranslateUnit(s.scope, unit, mode)
	})
}

// planSpans names the execute span of each result kind's plan run; the
// kind of its journal begin record is the name after "execute:".
var planSpans = [...]string{
	KindSelect:    "execute:select",
	KindSync:      "execute:sync",
	KindGlobalDML: "execute:dml",
	KindMultiTx:   "execute:multitx",
	KindExplain:   "execute:explain",
}

// execPlan runs one statement the way the paper's §4 runs every MSQL
// statement: translate it into a DOL program, run the program on the
// engine, then settle the outcome. A read plan assembles its
// multitable; a write plan drops the provisional GDD entries of DDL
// that did not commit, classifies the outcome, applies the DDL that did
// commit to the GDD and fires the triggers its committed subqueries
// match. res carries what the statement form sets (its kind, a sync's
// mode); translation fills in the rest.
//
// A non-nil ex runs the statement in EXPLAIN mode: plain EXPLAIN stops
// after translation, like a dry run, and renders the federation plan;
// ANALYZE wraps every task body in a site-local EXPLAIN ANALYZE before
// the run and annotates the plan with the outcome after it.
func (s *Session) execPlan(ctx context.Context, res *Result, ex *msqlparser.ExplainStmt,
	translateFn func() (*dol.Program, *translate.Meta, error)) (*Result, error) {
	f := s.f
	tsp, _ := obs.StartSpan(ctx, "translate", obs.KindTranslate)
	prog, meta, err := translateFn()
	tsp.EndErr(err)
	if err != nil {
		return nil, err
	}
	res.DOL, res.Skipped = printPlan(ctx, prog), meta.Skipped
	run := !f.DryRun && (ex == nil || ex.Analyze)
	var out *dolengine.Outcome
	start := time.Now()
	if run {
		if ex != nil {
			wrapSiteExplain(prog)
		}
		span := planSpans[res.Kind]
		if s.inTrigger {
			span = "execute:trigger"
		}
		out, err = f.runPlan(ctx, span, prog, meta)
	}
	// Provisional GDD entries stay only where their DDL committed: none
	// stays when nothing ran.
	f.dropProvisional(meta, out)
	if !run {
		if ex != nil {
			res.Plan = federationPlan(prog, meta, nil)
		}
		return res, nil
	}
	if err != nil {
		return res, err
	}
	var rows int64
	if readPlan(meta) {
		if err := f.assembleMultitable(res, meta, out); err != nil {
			return res, err
		}
		rows = int64(res.Multitable.TotalRows())
	} else {
		f.fillFromOutcome(res, meta, out)
		mUnitOutcomes.With(res.State.String()).Inc()
		f.maintainGDD(meta, out)
		for _, n := range res.RowsAffected {
			rows += int64(n)
		}
		err = s.fireTriggers(ctx, res, meta, out)
	}
	if ex != nil {
		res.Plan = analyzedPlan(prog, meta, out, start, rows)
	}
	return res, err
}

// fireTriggers runs interdatabase triggers matching the manipulation
// subqueries a unit left standing, each as a unit of its own through
// execPlan. Triggers do not fire recursively.
func (s *Session) fireTriggers(ctx context.Context, res *Result, meta *translate.Meta, out *dolengine.Outcome) error {
	if s.inTrigger {
		return nil
	}
	triggers := s.f.triggerSnapshot()
	if len(triggers) == 0 {
		return nil
	}
	fired := map[string]bool{}
	for _, sq := range planStanding(meta, out) {
		tm := meta.Tasks[sq.i]
		if sq.fate != stands {
			continue
		}
		ev := eventOf(tm.Stmt)
		for name, trig := range triggers {
			if fired[name] || trig.event != ev {
				continue
			}
			if trig.database != tm.Entry.Database && trig.database != tm.Entry.Name {
				continue
			}
			fired[name] = true
			s.inTrigger = true
			_, err := s.execPlan(ctx, &Result{Kind: KindSync}, nil, func() (*dol.Program, *translate.Meta, error) {
				return s.f.tctx.TranslateUnit(trig.scope,
					[]translate.UnitQuery{{Lets: trig.lets, Query: trig.query}}, translate.SyncCommit)
			})
			s.inTrigger = false
			if err != nil {
				return fmt.Errorf("core: trigger %s: %w", name, err)
			}
			res.TriggersFired = append(res.TriggersFired, name)
		}
	}
	return nil
}

// eventOf names the trigger event a committed statement raises.
func eventOf(st sqlparser.Statement) string {
	switch st.(type) {
	case *sqlparser.UpdateStmt:
		return "UPDATE"
	case *sqlparser.InsertStmt:
		return "INSERT"
	case *sqlparser.DeleteStmt:
		return "DELETE"
	case *sqlparser.CreateTableStmt, *sqlparser.CreateViewStmt:
		return "CREATE"
	case *sqlparser.DropTableStmt, *sqlparser.DropViewStmt:
		return "DROP"
	default:
		return ""
	}
}

// translateSelect translates a retrieval. The multiview invocation form
// runs the view's captured multiple query under the scope and LET
// bindings captured at its definition; anything else runs as written
// under the session's.
func (s *Session) translateSelect(q *msqlparser.QueryStmt) (*dol.Program, *translate.Meta, error) {
	scope, lets := s.scope, s.lets
	if view := s.f.matchMultiview(q.Body.(*sqlparser.SelectStmt)); view != nil {
		scope, lets, q = view.scope, view.lets, &msqlparser.QueryStmt{Body: view.body}
	}
	return s.f.tctx.TranslateQuery(scope, lets, q)
}
