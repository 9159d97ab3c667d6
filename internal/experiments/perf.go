package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"msql/internal/catalog"
	"msql/internal/core"
	"msql/internal/demo"
	"msql/internal/dol"
	"msql/internal/dolengine"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/msqlparser"
	"msql/internal/obs"
	"msql/internal/relstore"
	"msql/internal/semvar"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// F1PhaseBreakdown times each phase of the pipeline of Figure 1 for the
// Section 3.2 update: MSQL parse, identifier substitution, plan
// generation, and execution.
func F1PhaseBreakdown(iters int) (*Table, error) {
	fed, err := demo.Build(demo.Options{Seed: 1})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "F1",
		Title:  "Figure 1 pipeline — phase latency for the §3.2 vital update",
		Header: []string{"phase", "mean latency"},
	}

	parseTime, err := timeIt(iters, func() error {
		_, err := msqlparser.Parse(Section32Update)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("MSQL parse", us(parseTime))

	script, err := msqlparser.Parse(Section32Update)
	if err != nil {
		return nil, err
	}
	use := script.Stmts[0].(*msqlparser.UseStmt)
	q := script.Stmts[1].(*msqlparser.QueryStmt)
	scope := semvar.ScopeFromUse(use)

	expandTime, err := timeIt(iters, func() error {
		_, err := semvar.Expand(fed.GDD, scope, nil, q.Body)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("substitution+disambiguation", us(expandTime))

	fed.DryRun = true
	translateTime, err := timeIt(iters, func() error {
		_, err := fed.ExecScript(Section32Update)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("plan generation (incl. above)", us(translateTime))

	fed.DryRun = false
	execTime, err := timeIt(iters, func() error {
		_, err := fed.ExecScript(Section32Update)
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("end-to-end execution", us(execTime))
	return t, nil
}

// F2ImportScaling measures INCORPORATE+IMPORT against growing local
// conceptual schemas (Figure 2's dictionary architecture).
func F2ImportScaling(sizes []int) (*Table, error) {
	t := &Table{
		ID:     "F2",
		Title:  "Figure 2 schema architecture — IMPORT DATABASE scaling with schema size",
		Header: []string{"tables in LCS", "import time", "GDD tables after"},
	}
	for _, n := range sizes {
		srv := ldbms.NewServer("svc_big", ldbms.ProfileOracleLike(), 1)
		if err := srv.CreateDatabase("big"); err != nil {
			return nil, err
		}
		sess, err := srv.OpenSession("big")
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			ddl := fmt.Sprintf("CREATE TABLE tab%d (id INTEGER, name CHAR(20), val FLOAT)", i)
			if _, err := sess.Exec(ddl); err != nil {
				return nil, err
			}
		}
		if err := sess.Commit(); err != nil {
			return nil, err
		}
		sess.Close()

		fed := core.New()
		fed.RegisterClient("svc_big", lam.NewLocal(srv))
		if _, err := fed.ExecScript("INCORPORATE SERVICE svc_big CONNECTMODE CONNECT COMMITMODE NOCOMMIT"); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := fed.ExecScript("IMPORT DATABASE big FROM SERVICE svc_big"); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		db, err := fed.GDD.Database("big")
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), ms(elapsed), fmt.Sprintf("%d", len(db.Tables)))
	}
	return t, nil
}

// genericFederation builds n generic databases (d1..dn on s1..sn), each
// with an items table of the given row count.
func genericFederation(n, rows int) (*core.Federation, error) {
	fed := core.New()
	var setup string
	for i := 1; i <= n; i++ {
		svc := fmt.Sprintf("s%d", i)
		db := fmt.Sprintf("d%d", i)
		srv := fed.AddLocalService(svc, ldbms.ProfileOracleLike(), int64(i))
		if err := srv.CreateDatabase(db); err != nil {
			return nil, err
		}
		sess, err := srv.OpenSession(db)
		if err != nil {
			return nil, err
		}
		if _, err := sess.Exec("CREATE TABLE items (id INTEGER, grp CHAR(4), val FLOAT)"); err != nil {
			return nil, err
		}
		for r := 0; r < rows; r++ {
			grp := "a"
			if r%3 == 0 {
				grp = "b"
			}
			ins := fmt.Sprintf("INSERT INTO items VALUES (%d, '%s', %d.5)", r, grp, r%500)
			if _, err := sess.Exec(ins); err != nil {
				return nil, err
			}
		}
		if err := sess.Commit(); err != nil {
			return nil, err
		}
		sess.Close()
		setup += fmt.Sprintf("INCORPORATE SERVICE %s CONNECTMODE CONNECT COMMITMODE NOCOMMIT;\nIMPORT DATABASE %s FROM SERVICE %s;\n", svc, db, svc)
	}
	if _, err := fed.ExecScript(setup); err != nil {
		return nil, err
	}
	return fed, nil
}

// useAll returns "USE d1 d2 ... dn".
func useAll(n int) string {
	out := "USE"
	for i := 1; i <= n; i++ {
		out += fmt.Sprintf(" d%d", i)
	}
	return out
}

// sequentialize chains every task after its predecessor, turning the
// engine's parallel fan-out into the sequential baseline the paper's
// optimization discussion compares against.
func sequentialize(prog *dol.Program) {
	prev := ""
	for _, s := range prog.Stmts {
		if task, ok := s.(*dol.TaskStmt); ok {
			if prev != "" {
				task.After = []string{prev}
			}
			prev = task.Name
		}
	}
}

// B1Parallelism compares parallel and sequential execution of the same
// fan-out plan over 1..n databases. Each simulated remote site carries a
// per-operation service latency, the quantity the paper's "optimization
// related to parallelism" overlaps.
func B1Parallelism(dbCounts []int, rows, iters int, siteLatency time.Duration) (*Table, error) {
	t := &Table{
		ID:    "B1",
		Title: "parallel vs sequential subquery execution (fan-out aggregate query)",
		Note: fmt.Sprintf("%d rows per database, %v simulated service latency per site; the DOL engine overlaps independent tasks",
			rows, siteLatency),
		Header: []string{"databases", "sequential", "parallel", "speedup"},
	}
	maxN := 0
	for _, n := range dbCounts {
		if n > maxN {
			maxN = n
		}
	}
	fed, err := genericFederation(maxN, rows)
	if err != nil {
		return nil, err
	}
	for i := 1; i <= maxN; i++ {
		fed.Server(fmt.Sprintf("s%d", i)).SetLatency(siteLatency)
	}
	for _, n := range dbCounts {
		script := useAll(n) + "\nSELECT COUNT(id), AVG(val) FROM items WHERE grp = 'a'"
		fed.DryRun = true
		results, err := fed.ExecScript(script)
		if err != nil {
			return nil, err
		}
		fed.DryRun = false
		var dolText string
		for _, r := range results {
			if r.DOL != "" {
				dolText = r.DOL
			}
		}
		engine := dolengine.New(fed)
		seqProg, err := dol.Parse(dolText)
		if err != nil {
			return nil, err
		}
		sequentialize(seqProg)
		seq, err := timeIt(iters, func() error {
			_, err := engine.Run(context.Background(), seqProg)
			return err
		})
		if err != nil {
			return nil, err
		}
		parProg, err := dol.Parse(dolText)
		if err != nil {
			return nil, err
		}
		par, err := timeIt(iters, func() error {
			_, err := engine.Run(context.Background(), parProg)
			return err
		})
		if err != nil {
			return nil, err
		}
		speedup := float64(seq) / float64(par)
		t.AddRow(fmt.Sprintf("%d", n), ms(seq), ms(par), fmt.Sprintf("%.2fx", speedup))
	}
	return t, nil
}

// B2CommitModes measures the per-update cost of the commit protocols the
// AD records: autocommit (one round trip to the LAM) vs user-controlled
// 2PC (exec + prepare + commit). Measured over the TCP transport, where
// message rounds — the real cost of 2PC in the paper's setting — are
// visible.
func B2CommitModes(iters int) (*Table, error) {
	t := &Table{
		ID:     "B2",
		Title:  "commit-capability heterogeneity — per-update cost by protocol (TCP LAM)",
		Header: []string{"protocol", "mean per update", "message rounds"},
	}
	build := func(p ldbms.Profile) (lam.Session, func(), error) {
		srv := ldbms.NewServer("b2", p, 1)
		if err := srv.CreateDatabase("db"); err != nil {
			return nil, nil, err
		}
		boot, err := srv.OpenSession("db")
		if err != nil {
			return nil, nil, err
		}
		if _, err := boot.Exec("CREATE TABLE t (id INTEGER, val FLOAT)"); err != nil {
			return nil, nil, err
		}
		if _, err := boot.Exec("INSERT INTO t VALUES (1, 0.0)"); err != nil {
			return nil, nil, err
		}
		if err := boot.Commit(); err != nil {
			return nil, nil, err
		}
		boot.Close()
		ts, err := lam.Serve("127.0.0.1:0", srv)
		if err != nil {
			return nil, nil, err
		}
		client, err := lam.Dial(ts.Addr())
		if err != nil {
			ts.Close()
			return nil, nil, err
		}
		sess, err := client.Open(context.Background(), "db")
		if err != nil {
			client.Close()
			ts.Close()
			return nil, nil, err
		}
		cleanup := func() {
			sess.Close()
			client.Close()
			ts.Close()
		}
		return sess, cleanup, nil
	}

	auto, cleanupAuto, err := build(ldbms.ProfileAutoCommitOnly())
	if err != nil {
		return nil, err
	}
	defer cleanupAuto()
	autoTime, err := timeIt(iters, func() error {
		_, err := auto.Exec(context.Background(), "UPDATE t SET val = val + 1 WHERE id = 1")
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("autocommit (COMMITMODE COMMIT)", us(autoTime), "1 (exec, immediately durable)")

	twopc, cleanupTwo, err := build(ldbms.ProfileOracleLike())
	if err != nil {
		return nil, err
	}
	defer cleanupTwo()
	twoTime, err := timeIt(iters, func() error {
		if _, err := twopc.Exec(context.Background(), "UPDATE t SET val = val + 1 WHERE id = 1"); err != nil {
			return err
		}
		if err := twopc.Prepare(context.Background()); err != nil {
			return err
		}
		return twopc.Commit(context.Background())
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("2PC (COMMITMODE NOCOMMIT)", us(twoTime), "3 (exec + prepare + commit)")
	ratio := float64(twoTime) / float64(autoTime)
	t.Note = fmt.Sprintf("2PC costs %.2fx the autocommit path (extra protocol rounds)", ratio)
	return t, nil
}

// B3EarlyRelease measures the paper's §3.4 claim that compensation
// improves performance "through earlier release of the resources held by
// global transactions": workers updating a hot table either hold their
// locks across a simulated global-transaction delay (2PC hold) or commit
// immediately (compensation mode).
func B3EarlyRelease(workers, opsPerWorker int, hold time.Duration) (*Table, error) {
	run := func(early bool) (time.Duration, error) {
		srv := ldbms.NewServer("b3", ldbms.ProfileOracleLike(), 1)
		if err := srv.CreateDatabase("db"); err != nil {
			return 0, err
		}
		boot, err := srv.OpenSession("db")
		if err != nil {
			return 0, err
		}
		if _, err := boot.Exec("CREATE TABLE hot (id INTEGER, val FLOAT)"); err != nil {
			return 0, err
		}
		if _, err := boot.Exec("INSERT INTO hot VALUES (1, 0.0)"); err != nil {
			return 0, err
		}
		if err := boot.Commit(); err != nil {
			return 0, err
		}
		boot.Close()

		start := time.Now()
		var wg sync.WaitGroup
		errs := make([]error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sess, err := srv.OpenSession("db")
				if err != nil {
					errs[w] = err
					return
				}
				defer sess.Close()
				sess.SetLockTimeout(30 * time.Second)
				for i := 0; i < opsPerWorker; i++ {
					if _, err := sess.Exec("UPDATE hot SET val = val + 1 WHERE id = 1"); err != nil {
						errs[w] = err
						return
					}
					if early {
						// Compensation mode: commit now, release locks,
						// do the rest of the global transaction after.
						if err := sess.Commit(); err != nil {
							errs[w] = err
							return
						}
						time.Sleep(hold)
					} else {
						// 2PC mode: stay prepared (locks held) until the
						// global transaction finishes elsewhere.
						if err := sess.Prepare(); err != nil {
							errs[w] = err
							return
						}
						time.Sleep(hold)
						if err := sess.Commit(); err != nil {
							errs[w] = err
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}

	holdTime, err := run(false)
	if err != nil {
		return nil, err
	}
	earlyTime, err := run(true)
	if err != nil {
		return nil, err
	}
	totalOps := workers * opsPerWorker
	t := &Table{
		ID:    "B3",
		Title: "compensation enables earlier resource release (§3.4)",
		Note: fmt.Sprintf("%d workers × %d updates on one hot row; %v of global-transaction work per update",
			workers, opsPerWorker, hold),
		Header: []string{"mode", "total time", "throughput"},
	}
	t.AddRow("2PC hold (prepared across delay)", ms(holdTime),
		fmt.Sprintf("%.0f ops/s", float64(totalOps)/holdTime.Seconds()))
	t.AddRow("compensation (commit early)", ms(earlyTime),
		fmt.Sprintf("%.0f ops/s", float64(totalOps)/earlyTime.Seconds()))
	return t, nil
}

// B4Substitution measures multiple identifier substitution against
// dictionaries of growing size.
func B4Substitution(sizes []int, iters int) (*Table, error) {
	t := &Table{
		ID:     "B4",
		Title:  "multiple identifier substitution cost vs dictionary size",
		Note:   "pattern tab% matches every table; exact names stay cheap",
		Header: []string{"tables", "expand tab% (all match)", "expand exact name", "queries generated"},
	}
	for _, n := range sizes {
		fed := core.New()
		fed.GDD.DefineDatabase("big", "svc")
		for i := 0; i < n; i++ {
			def := catalog.TableDef{Name: fmt.Sprintf("tab%d", i)}
			for c := 0; c < 4; c++ {
				def.Columns = append(def.Columns, relstore.Column{
					Name: fmt.Sprintf("c%d", c), Type: sqlval.KindString,
				})
			}
			if err := fed.GDD.PutTable("big", def); err != nil {
				return nil, err
			}
		}
		scope := []semvar.ScopeEntry{{Database: "big", Name: "big"}}
		patBody, err := sqlparser.ParseStatement("SELECT c0 FROM tab%")
		if err != nil {
			return nil, err
		}
		var generated int
		patTime, err := timeIt(iters, func() error {
			res, err := semvar.Expand(fed.GDD, scope, nil, patBody)
			if err != nil {
				return err
			}
			generated = len(res.Queries)
			return nil
		})
		if err != nil {
			return nil, err
		}
		exactBody, err := sqlparser.ParseStatement("SELECT c0 FROM tab0")
		if err != nil {
			return nil, err
		}
		exactTime, err := timeIt(iters, func() error {
			_, err := semvar.Expand(fed.GDD, scope, nil, exactBody)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), us(patTime), us(exactTime), fmt.Sprintf("%d", generated))
	}
	return t, nil
}

// B5Transport compares the in-process and TCP LAM transports.
func B5Transport(iters int) (*Table, error) {
	srv := ldbms.NewServer("b5", ldbms.ProfileOracleLike(), 1)
	if err := srv.CreateDatabase("db"); err != nil {
		return nil, err
	}
	boot, err := srv.OpenSession("db")
	if err != nil {
		return nil, err
	}
	if _, err := boot.Exec("CREATE TABLE t (id INTEGER, val FLOAT)"); err != nil {
		return nil, err
	}
	for i := 0; i < 64; i++ {
		if _, err := boot.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d.0)", i, i)); err != nil {
			return nil, err
		}
	}
	if err := boot.Commit(); err != nil {
		return nil, err
	}
	boot.Close()

	t := &Table{
		ID:     "B5",
		Title:  "LAM transport — in-process vs TCP round trip (64-row scan)",
		Header: []string{"transport", "mean per query"},
	}

	local := lam.NewLocal(srv)
	lsess, err := local.Open(context.Background(), "db")
	if err != nil {
		return nil, err
	}
	defer lsess.Close()
	localTime, err := timeIt(iters, func() error {
		_, err := lsess.Exec(context.Background(), "SELECT id, val FROM t")
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("in-process", us(localTime))

	ts, err := lam.Serve("127.0.0.1:0", srv)
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	remote, err := lam.Dial(ts.Addr())
	if err != nil {
		return nil, err
	}
	defer remote.Close()
	rsess, err := remote.Open(context.Background(), "db")
	if err != nil {
		return nil, err
	}
	defer rsess.Close()
	tcpTime, err := timeIt(iters, func() error {
		_, err := rsess.Exec(context.Background(), "SELECT id, val FROM t")
		return err
	})
	if err != nil {
		return nil, err
	}
	t.AddRow("TCP (gob)", us(tcpTime))
	t.Note = fmt.Sprintf("TCP adds %.2fx over in-process on loopback", float64(tcpTime)/float64(localTime))
	return t, nil
}

// B6CrossJoin measures the ship-to-coordinator plan against data size.
func B6CrossJoin(sizes []int, iters int) (*Table, error) {
	t := &Table{
		ID:     "B6",
		Title:  "cross-database join — ship partial results to the coordinator",
		Note:   "SELECT COUNT(d1 rows cheaper than d2) across two databases",
		Header: []string{"rows per database", "mean per join", "shipped rows"},
	}
	for _, n := range sizes {
		fed, err := genericFederation(2, n)
		if err != nil {
			return nil, err
		}
		script := `USE d1 d2
SELECT COUNT(a.id) AS n FROM d1.items a, d2.items b WHERE a.id = b.id AND a.val < b.val`
		d, err := timeIt(iters, func() error {
			_, err := fed.ExecScript(script)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), ms(d), fmt.Sprintf("%d", 2*n))
	}
	return t, nil
}

// B7ConsistencyLevels ablates the paper's consistency knob (§3.2.1):
// the same multiple update executed with no VITAL designators, with the
// full vital set under 2PC, and with compensation instead of 2PC.
func B7ConsistencyLevels(iters int) (*Table, error) {
	t := &Table{
		ID:     "B7",
		Title:  "ablation — consistency level of the same multiple update",
		Note:   "\"different query evaluation plans are possible for the same multiple query, depending on the required level of consistency\"",
		Header: []string{"consistency level", "mean per statement", "plan shape"},
	}
	type variant struct {
		name, script, shape string
		contAuto            bool
	}
	noVital := `
USE continental delta united
UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston' AND dest% = 'San Antonio'
`
	variants := []variant{
		{"NON VITAL everywhere (best effort)", noVital,
			"3 autocommit tasks, no synchronization branch", false},
		{"vital set via 2PC (§3.2)", Section32Update,
			"2 NOCOMMIT tasks + prepared-state check + commit", false},
		{"vital set via compensation (§3.3)", Section33Update,
			"autocommit + COMP path on the non-2PC member", true},
	}
	const siteLatency = 500 * time.Microsecond
	t.Note += fmt.Sprintf("; %v simulated service latency per operation", siteLatency)
	for _, v := range variants {
		fed, err := demo.Build(demo.Options{Seed: 1, ContinentalAutoCommit: v.contAuto})
		if err != nil {
			return nil, err
		}
		for _, svc := range []string{"svc_cont", "svc_delta", "svc_unit"} {
			fed.Server(svc).SetLatency(siteLatency)
		}
		d, err := timeIt(iters, func() error {
			_, err := fed.ExecScript(v.script)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("B7 %s: %w", v.name, err)
		}
		t.AddRow(v.name, us(d), v.shape)
	}
	return t, nil
}

// B8SyncGranularity ablates synchronization granularity: k vital updates
// issued as k separate units (sync point after each) versus one unit
// synchronized once, per §3.2.2's deferred synchronization points.
func B8SyncGranularity(batch, iters int) (*Table, error) {
	t := &Table{
		ID:     "B8",
		Title:  "ablation — synchronization granularity for a batch of vital updates",
		Note:   fmt.Sprintf("%d updates on one VITAL database; sync per statement vs one deferred sync point", batch),
		Header: []string{"strategy", "mean per batch", "2PC rounds"},
	}
	perStatement := "USE avis VITAL\n"
	for i := 0; i < batch; i++ {
		perStatement += fmt.Sprintf("UPDATE cars SET rate = rate + 1 WHERE code = 1\nCOMMIT\n")
		_ = i
	}
	oneUnit := "USE avis VITAL\n"
	for i := 0; i < batch; i++ {
		oneUnit += "UPDATE cars SET rate = rate + 1 WHERE code = 1\n"
	}
	oneUnit += "COMMIT\n"

	run := func(script string) (time.Duration, error) {
		fed, err := demo.Build(demo.Options{Seed: 1})
		if err != nil {
			return 0, err
		}
		return timeIt(iters, func() error {
			_, err := fed.ExecScript(script)
			return err
		})
	}
	perD, err := run(perStatement)
	if err != nil {
		return nil, err
	}
	oneD, err := run(oneUnit)
	if err != nil {
		return nil, err
	}
	t.AddRow("sync after every statement", us(perD), fmt.Sprintf("%d prepare/commit pairs", batch))
	t.AddRow("one deferred sync point", us(oneD), "1 prepare/commit pair")
	t.Note += fmt.Sprintf("; batching saves %.2fx", float64(perD)/float64(oneD))
	return t, nil
}

// ObsStats is what TestB10ObservabilityOverhead asserts on: the two
// timings of one run, whose ratio is machine-independent, and the
// federation plan tree's node count, a structural fingerprint of the
// decomposition.
type ObsStats struct {
	Plain, Analyze time.Duration // mean per statement
	PlanNodes      int
}

// B10ObservabilityOverhead prices the observability plane: the same
// cross-database join executed plain, as a translate-only EXPLAIN, and
// under EXPLAIN ANALYZE with a slow-query log capturing every statement.
func B10ObservabilityOverhead(iters int) (*Table, ObsStats, error) {
	t := &Table{
		ID:     "B10",
		Title:  "observability overhead — EXPLAIN ANALYZE and the slow-query log",
		Note:   "decomposed two-site join; ANALYZE wraps every shipped subquery in a site-local EXPLAIN ANALYZE",
		Header: []string{"execution mode", "mean per statement"},
	}
	fed, err := demo.Build(demo.Options{Seed: 1})
	if err != nil {
		return nil, ObsStats{}, err
	}
	const join = `USE continental united
SELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.rate < u.rates`
	run := func(script string) (time.Duration, error) {
		return timeIt(iters, func() error {
			_, err := fed.ExecScript(script)
			return err
		})
	}
	plainD, err := run(join)
	if err != nil {
		return nil, ObsStats{}, err
	}
	explainD, err := run("USE continental united\nEXPLAIN " + strings.TrimPrefix(join, "USE continental united\n"))
	if err != nil {
		return nil, ObsStats{}, err
	}
	// ANALYZE with the slow-query log catching everything: the worst case
	// a production -slow-query-ms setting can configure.
	obs.SetSlowQueryLog(obs.NewSlowQueryLog(io.Discard, time.Nanosecond))
	analyzeScript := "USE continental united\nEXPLAIN ANALYZE " + strings.TrimPrefix(join, "USE continental united\n")
	analyzeD, err := run(analyzeScript)
	obs.SetSlowQueryLog(nil)
	if err != nil {
		return nil, ObsStats{}, err
	}
	results, err := fed.ExecScript(analyzeScript)
	if err != nil {
		return nil, ObsStats{}, err
	}
	plan := results[len(results)-1].Plan
	nodes := 0
	var count func(n *obs.PlanNode)
	count = func(n *obs.PlanNode) {
		nodes++
		for _, c := range n.Children {
			count(c)
		}
	}
	count(plan)

	stats := ObsStats{Plain: plainD, Analyze: analyzeD, PlanNodes: nodes}
	t.AddRow("plain SELECT", us(plainD))
	t.AddRow("EXPLAIN (translate only)", us(explainD))
	t.AddRow("EXPLAIN ANALYZE + slow log", us(analyzeD))
	t.Note += fmt.Sprintf("; ANALYZE overhead %.1f%%, %d plan nodes", 100*(float64(analyzeD)/float64(plainD)-1), nodes)
	return t, stats, nil
}
