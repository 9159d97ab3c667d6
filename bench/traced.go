package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"msql/internal/decompose"
	"msql/internal/dol"
	"msql/internal/dolengine"
	"msql/internal/msqlparser"
	"msql/internal/mtlog"
	"msql/internal/semvar"
	"msql/internal/sqlparser"
	"msql/internal/translate"
	"msql/internal/wire"
)

// counters is a snapshot of the federation's own counters; the traced
// run reports their deltas.
type counters struct {
	execs, prepares, commits, rollbacks int64
	hits, misses, evictions, flushes    int64
	syncRecords, fsyncs                 int64
	cpu                                 time.Duration
	allocBytes, mallocs, gcPauseNS      uint64
}

func (f *federation) counters() counters {
	var c counters
	for _, s := range f.sites {
		st := s.srv.Stats()
		c.execs += st.Execs
		c.prepares += st.Prepares
		c.commits += st.Commits
		c.rollbacks += st.Rollbacks
		if s.store != nil {
			ps := s.store.Pool().Stats()
			c.hits += ps.Hits
			c.misses += ps.Misses
			c.evictions += ps.Evictions
			c.flushes += ps.Flushes
		}
	}
	c.syncRecords, c.fsyncs = f.journal.SyncStats()
	c.cpu = cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.allocBytes, c.mallocs, c.gcPauseNS = ms.TotalAlloc, ms.Mallocs, ms.PauseTotalNs
	return c
}

// captureOps is how many of the traced run's last ops keep their LAM
// exchanges for the sqlparser and gob stage timings: one op cycle.
const captureOps = opCycle

// runTraced gives a workload's per-layer numbers: tracedOps scripts with
// the recorder on, bracketed by two untraced one-client baselines of an
// eighth of the budget each (so warming and drift cancel out of the
// tracing overhead), then the stage timings in what is left. The trace
// goes to outDir/<workload>.trace.json.
func runTraced(w *workload, seed int64, seconds float64, outDir string) (*result, *traceSummary, error) {
	budget := time.Duration(seconds * float64(time.Second))
	dir := dataDir(outDir, w)
	rec := newRecorder()
	rec.captureFrom = w.tracedOps - captureOps
	f, err := build(w, dir, rec, 1)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer f.close()
	g := newGenerator(w, seed, 0)
	c := f.clients[0]

	now := time.Now()
	base := drive(c, g, now.Add(budget/20), now.Add(budget/20+budget/8), opCycle, 0, nil)

	before := f.counters()
	rec.on.Store(true)
	traced := drive(c, g, time.Time{}, time.Time{}, 1, w.tracedOps, rec)
	rec.on.Store(false)
	after := f.counters()
	base2 := drive(c, g, time.Time{}, time.Now().Add(budget/8), opCycle, 0, nil)

	baseline := merge(base, base2)
	all := merge(baseline, traced)
	firstErr := all.firstErr
	ierr := w.invariant(f, all.ok)
	reportFailures(firstErr, ierr)

	sum := summarize(rec.spans)
	if err := writeTrace(filepath.Join(outDir, w.name+".trace.json"), rec.spans); err != nil {
		return nil, nil, err
	}
	n := float64(sum.Roots)
	if n == 0 {
		return nil, nil, fmt.Errorf("traced run recorded no root span (%v)", firstErr)
	}
	m := map[string]float64{}
	us := func(ns int64) float64 { return float64(ns) / 1e3 / n }
	m["client.traced_lat_mean_us"] = us(sum.RootNS)
	m["core.self_us_per_stmt"] = us(sum.CoreSelfNS)
	m["lam.wall_us_per_stmt"] = us(sum.LamWallNS)
	m["backend.wall_us_per_stmt"] = us(sum.BackendWallNS)
	m["lam.calls_per_stmt"] = float64(sum.LamCalls) / n
	m["lam.open_us_per_stmt"] = us(sum.Busy[spanLamOpen])
	m["lam.exec_us_per_stmt"] = us(sum.Busy[spanLamExec])
	m["lam.prepare_us_per_stmt"] = us(sum.Busy[spanLamPrepare])
	m["lam.commit_us_per_stmt"] = us(sum.Busy[spanLamCommit])
	m["lam.close_us_per_stmt"] = us(sum.Busy[spanLamClose])
	m["lam.self_us_per_stmt"] = us(sum.LamSelfNS)
	m["lam.errors_per_stmt"] = float64(sum.LamErrors) / n
	m["backend.exec_us_per_stmt"] = us(sum.Busy[spanBeExec])
	m["backend.prepare_us_per_stmt"] = us(sum.Busy[spanBePrepare])
	m["backend.commit_us_per_stmt"] = us(sum.Busy[spanBeCommit])
	m["backend.checkpoint_us_per_stmt"] = us(sum.Busy[spanBeCkpt])
	m["backend.checkpoints_per_stmt"] = float64(sum.Count[spanBeCkpt]) / n
	m["backend.rows_returned_per_stmt"] = float64(sum.RowsReturned) / n
	m["dolengine.ship_execs_per_stmt"] = float64(sum.ShipExecs) / n
	m["dolengine.ship_sql_bytes_per_stmt"] = float64(sum.ShipBytes) / n
	m["dolengine.ship_rows_per_stmt"] = float64(sum.ShipRows) / n
	m["trace.orphan_spans"] = float64(sum.Orphans)

	per := func(a, b int64) float64 { return float64(b-a) / n }
	m["ldbms.execs_per_stmt"] = per(before.execs, after.execs)
	m["ldbms.prepares_per_stmt"] = per(before.prepares, after.prepares)
	m["ldbms.commits_per_stmt"] = per(before.commits, after.commits)
	m["ldbms.rollbacks_per_stmt"] = per(before.rollbacks, after.rollbacks)
	m["storage.pool_hits_per_stmt"] = per(before.hits, after.hits)
	m["storage.pool_misses_per_stmt"] = per(before.misses, after.misses)
	m["storage.pool_evictions_per_stmt"] = per(before.evictions, after.evictions)
	m["storage.pool_flushes_per_stmt"] = per(before.flushes, after.flushes)
	m["storage.flushed_kb_per_stmt"] = per(before.flushes, after.flushes) * 4 // storage.PageSize is 4 KiB
	if touched := (after.hits - before.hits) + (after.misses - before.misses); touched > 0 {
		m["storage.pool_hit_ratio"] = float64(after.hits-before.hits) / float64(touched)
	}
	m["mtlog.sync_records_per_stmt"] = per(before.syncRecords, after.syncRecords)
	m["mtlog.fsyncs_per_stmt"] = per(before.fsyncs, after.fsyncs)
	m["process.cpu_ms_per_stmt"] = float64(after.cpu-before.cpu) / 1e6 / n
	m["process.alloc_kb_per_stmt"] = float64(after.allocBytes-before.allocBytes) / 1024 / n
	m["process.allocs_per_stmt"] = float64(after.mallocs-before.mallocs) / n
	m["process.gc_pause_ms"] = float64(after.gcPauseNS-before.gcPauseNS) / 1e6

	baseLats := sortedLats(baseline.samples)
	m["client.lat_p99_ms"] = percentile(baseLats, 0.99)
	m["client.samples"] = float64(len(baseLats))
	if p50 := percentile(baseLats, 0.5); p50 > 0 {
		m["client.trace_overhead_frac"] = percentile(sortedLats(traced.samples), 0.5)/p50 - 1
	}

	// Stage timings replay one op cycle from the top of the client's
	// stream: every key the run inserted is deleted again by now, so the
	// replay meets the data the stream expects.
	if firstErr == nil && ierr == nil {
		spent := time.Since(now)
		if err := stageTimings(w, f, seed, rec.exchanges, max(budget-spent, budget/4), m); err != nil {
			return nil, nil, fmt.Errorf("stage timings: %w", err)
		}
	}
	// What is left of core self time once the stages timed on their own
	// and the coordinator journal's fsyncs are taken out.
	m["core.unattributed_us_per_stmt"] = m["core.self_us_per_stmt"] - m["msqlparser.parse_us"] -
		m["translate.translate_us"] - m["dol.print_us"] - m["mtlog.fsyncs_per_stmt"]*m["mtlog.append_sync_us"]

	res := &result{
		Correct:   firstErr == nil && ierr == nil,
		Attempted: len(all.samples),
		Failed:    all.failed(),
		Metrics:   map[string]metricValue{},
	}
	for _, pm := range perLayer {
		res.Metrics[pm.Name] = metricValue{m[pm.Name], pm.Unit}
		delete(m, pm.Name)
	}
	if len(m) > 0 {
		return nil, nil, fmt.Errorf("metrics missing from the perLayer table: %v", m)
	}
	return res, sum, nil
}

// timeIt calls fn up to maxIter times, stopping early once slice is
// spent (but never before minIter calls), and returns the mean time of a
// call in microseconds.
func timeIt(slice time.Duration, minIter, maxIter int, fn func(i int) error) (float64, error) {
	start := time.Now()
	i := 0
	for ; i < maxIter; i++ {
		if i >= minIter && i%minIter == 0 && time.Since(start) > slice {
			break
		}
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / 1e3 / float64(i), nil
}

// stageIters is the iteration cap of one stage timing.
const stageIters = 10000

// staged is one sample statement taken through the front half by hand.
type staged struct {
	script string
	scope  []semvar.ScopeEntry
	query  *msqlparser.QueryStmt
	unit   bool // ends in COMMIT: a transaction unit, else an immediate query
	prog   *dol.Program
}

func (s *staged) translate(tc *translate.Context) (*dol.Program, error) {
	if s.unit {
		p, _, err := tc.TranslateUnit(s.scope, []translate.UnitQuery{{Query: s.query}}, translate.SyncCommit)
		return p, err
	}
	p, _, err := tc.TranslateQuery(s.scope, nil, s.query)
	return p, err
}

// tasksIn counts the tasks of a plan, compensations in IF branches
// included.
func tasksIn(stmts []dol.Stmt) (n int, bodies []sqlparser.Statement) {
	for _, st := range stmts {
		switch t := st.(type) {
		case *dol.TaskStmt:
			n++
			bodies = append(bodies, t.Body...)
		case *dol.IfStmt:
			for _, branch := range [][]dol.Stmt{t.Then, t.Else} {
				k, b := tasksIn(branch)
				n += k
				bodies = append(bodies, b...)
			}
		}
	}
	return n, bodies
}

// stageTimings times each front-half stage, the engine, the SQL parser,
// gob and the journals directly, on one op cycle of the workload's own
// statements and on the LAM exchanges the traced run captured. Results
// land in m under the stage metric names.
func stageTimings(w *workload, f *federation, seed int64, exchanges []exchange, budget time.Duration, m map[string]float64) error {
	slice := budget / 14
	tc := &translate.Context{AD: f.fed.AD, GDD: f.fed.GDD}
	g := newGenerator(w, seed, 0)
	samples := make([]*staged, opCycle)
	var bodies []sqlparser.Statement
	tasks := 0
	for i := range samples {
		s := &staged{script: g.next().Script}
		script, err := msqlparser.Parse(s.script)
		if err != nil {
			return err
		}
		for _, st := range script.Stmts {
			switch t := st.(type) {
			case *msqlparser.UseStmt:
				s.scope = semvar.ScopeFromUse(t)
			case *msqlparser.QueryStmt:
				s.query = t
			case *msqlparser.CommitStmt:
				s.unit = true
			}
		}
		if s.prog, err = s.translate(tc); err != nil {
			return err
		}
		n, b := tasksIn(s.prog.Stmts)
		tasks += n
		bodies = append(bodies, b...)
		samples[i] = s
	}
	m["dol.tasks_per_stmt"] = float64(tasks) / opCycle
	pick := func(i int) *staged { return samples[i%opCycle] }

	var err error
	stage := func(name string, minIter, maxIter int, fn func(i int) error) {
		if err == nil {
			m[name], err = timeIt(slice, minIter, maxIter, fn)
		}
	}
	stage("msqlparser.parse_us", opCycle, stageIters, func(i int) error {
		_, err := msqlparser.Parse(pick(i).script)
		return err
	})
	stage("semvar.expand_us", opCycle, stageIters, func(i int) error {
		s := pick(i)
		_, err := semvar.Expand(f.fed.GDD, s.scope, nil, s.query.Body)
		return err
	})
	if exp, xerr := semvar.Expand(f.fed.GDD, samples[0].scope, nil, samples[0].query.Body); xerr != nil {
		return xerr
	} else if exp.Queries[0].Global {
		// Only a cross-database query reaches the decomposer.
		stage("decompose.decompose_us", opCycle, stageIters, func(i int) error {
			_, err := decompose.Decompose(f.fed.GDD, exp.Queries[0])
			return err
		})
	}
	stage("translate.translate_us", opCycle, stageIters, func(i int) error {
		_, err := pick(i).translate(tc)
		return err
	})
	stage("dol.print_us", opCycle, stageIters, func(i int) error {
		_ = dol.Print(pick(i).prog)
		return nil
	})
	// Whole cycles only: the op stream's inserts and deletes pair up.
	eng := dolengine.New(f.fed)
	stage("dolengine.run_us", opCycle, stageIters, func(i int) error {
		_, err := eng.Run(context.Background(), pick(i).prog)
		return err
	})
	// The engine deparses every task body before sending it...
	perStmt := func(us float64) float64 { return us / opCycle }
	stage("sqlparser.deparse_us", 1, stageIters/opCycle, func(int) error {
		for _, b := range bodies {
			_ = sqlparser.Deparse(b)
		}
		return nil
	})
	m["sqlparser.deparse_us"] = perStmt(m["sqlparser.deparse_us"])
	// ...and each LAM parses every text it receives, ship INSERTs included.
	stage("sqlparser.parse_us", 1, stageIters/opCycle, func(int) error {
		for _, x := range exchanges {
			if _, err := sqlparser.ParseStatement(x.sql); err != nil {
				return err
			}
		}
		return nil
	})
	m["sqlparser.parse_us"] = perStmt(m["sqlparser.parse_us"])
	if err != nil {
		return err
	}
	if err := gobTimings(exchanges, slice, m); err != nil {
		return err
	}
	return journalTimings(f.dir, slice, m)
}

// gobTimings encodes and decodes each captured Exec exchange the way the
// LAM transport does, on a fresh gob stream per exchange (type
// descriptors sent again, as on a newly dialled session connection) and
// on one reused stream. Both are per exchange: one request plus one
// response.
func gobTimings(exchanges []exchange, slice time.Duration, m map[string]float64) error {
	if len(exchanges) == 0 {
		return nil
	}
	type msg struct {
		req  wire.Request
		resp wire.Response
	}
	msgs := make([]msg, len(exchanges))
	rows := 0
	for i, x := range exchanges {
		wr := &wire.Result{RowsAffected: x.res.RowsAffected, Rows: x.res.Rows}
		for _, c := range x.res.Columns {
			wr.Columns = append(wr.Columns, wire.Column{Name: c.Name, Type: uint8(c.Type)})
		}
		msgs[i] = msg{wire.Request{Kind: wire.ReqExec, SessionID: 1, SQL: x.sql}, wire.Response{Result: wr}}
		rows += len(x.res.Rows)
	}
	roundTrip := func(enc *gob.Encoder, dec *gob.Decoder, mg *msg) error {
		if err := enc.Encode(&mg.req); err != nil {
			return err
		}
		var req wire.Request
		if err := dec.Decode(&req); err != nil {
			return err
		}
		if err := enc.Encode(&mg.resp); err != nil {
			return err
		}
		var resp wire.Response
		return dec.Decode(&resp)
	}
	var err error
	m["wire.gob_fresh_us"], err = timeIt(slice, len(msgs), stageIters, func(i int) error {
		var buf bytes.Buffer
		return roundTrip(gob.NewEncoder(&buf), gob.NewDecoder(&buf), &msgs[i%len(msgs)])
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	m["wire.gob_reused_us"], err = timeIt(slice, len(msgs), stageIters, func(i int) error {
		return roundTrip(enc, dec, &msgs[i%len(msgs)])
	})
	if err != nil || rows == 0 {
		return err
	}
	// Steady-state response size per row returned, descriptors already sent.
	var sized bytes.Buffer
	senc := gob.NewEncoder(&sized)
	total := 0
	for pass := 0; pass < 2; pass++ {
		total = 0
		for i := range msgs {
			if len(msgs[i].resp.Result.Rows) == 0 {
				continue
			}
			sized.Reset()
			if err := senc.Encode(&msgs[i].resp); err != nil {
				return err
			}
			total += sized.Len()
		}
	}
	m["wire.resp_bytes_per_row"] = float64(total) / float64(rows)
	return nil
}

// journalTimings times one synced append on each journal tier, on the
// filesystem the run's own journals live on.
func journalTimings(dir string, slice time.Duration, m map[string]float64) error {
	j, err := mtlog.Open(filepath.Join(dir, "stage-coord.journal"))
	if err != nil {
		return err
	}
	defer j.Close()
	m["mtlog.append_sync_us"], err = timeIt(slice, 8, stageIters, func(i int) error {
		return j.Append(&mtlog.Record{Type: mtlog.TDecision, MTID: uint64(i + 1), Commit: true, Decided: []string{"T1", "T2", "T3"}})
	})
	if err != nil {
		return err
	}
	pj, err := mtlog.OpenParticipant(filepath.Join(dir, "stage-part.journal"))
	if err != nil {
		return err
	}
	defer pj.Close()
	m["mtlog.pappend_sync_us"], err = timeIt(slice, 8, stageIters, func(i int) error {
		return pj.Append(&mtlog.Record{Type: mtlog.PPrepared, MTID: uint64(i + 1), SessionID: int64(i + 1),
			Redo: []string{"UPDATE acct00 SET bal = bal + 1 WHERE id = 1"}})
	})
	return err
}
