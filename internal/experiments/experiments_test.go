package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"text/tabwriter"
	"time"

	"msql/internal/catalog"
	"msql/internal/core"
	"msql/internal/demo"
	"msql/internal/dol"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/obs"
	"msql/internal/schema"
	"msql/internal/semvar"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

var cellSep = regexp.MustCompile(`\s{2,}`)

// docTable returns the first indented block under EXPERIMENTS.md's
// "## <id> " heading, one slice of cells per line (cells are separated
// by two or more spaces; the first line is the header).
func docTable(t *testing.T, id string) [][]string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]string
	in := false
	for _, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			in = strings.HasPrefix(line, "## "+id+" ")
		case in && strings.HasPrefix(line, "    "):
			out = append(out, cellSep.Split(strings.TrimSpace(line), -1))
		case in && len(out) > 0:
			return out
		}
	}
	if len(out) == 0 {
		t.Fatalf("EXPERIMENTS.md has no table under ## %s", id)
	}
	return out
}

// checkDocTable compares every cell of a regenerated table with the one
// EXPERIMENTS.md records, and prints the regenerated table on mismatch
// in the layout the document uses.
func checkDocTable(t *testing.T, build func() (*Table, error)) {
	t.Helper()
	tbl, err := build()
	if err != nil {
		t.Fatal(err)
	}
	got := append([][]string{tbl.Header}, tbl.Rows...)
	want := docTable(t, tbl.ID)
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w []string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if !slices.Equal(g, w) {
			t.Errorf("%s line %d: regenerated %q, EXPERIMENTS.md has %q", tbl.ID, i, g, w)
		}
	}
	if t.Failed() {
		var b strings.Builder
		tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
		for _, r := range got {
			fmt.Fprintln(tw, strings.Join(r, "\t"))
		}
		tw.Flush()
		t.Logf("regenerated %s:\n%s", tbl.ID, b.String())
	}
}

func TestE1Multitable(t *testing.T)    { checkDocTable(t, E1Multitable) }
func TestE2OutcomeMatrix(t *testing.T) { checkDocTable(t, E2OutcomeMatrix) }
func TestE3Paths(t *testing.T)         { checkDocTable(t, E3Paths) }
func TestE4States(t *testing.T)        { checkDocTable(t, E4States) }

func TestE5Program(t *testing.T) {
	prog, err := E5Program()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"TASK T1 NOCOMMIT FOR continental",
		"TASK T2 FOR delta",
		"TASK T3 NOCOMMIT FOR united",
		"IF (T1=P) AND (T3=P) THEN",
		"COMMIT T1, T3;",
		"DOLSTATUS=1;",
	} {
		if !strings.Contains(prog, want) {
			t.Errorf("program missing %q", want)
		}
	}
}

// TestE5GoldenProgram compares the regenerated §4.3 DOL listing against
// the checked-in golden file byte for byte.
func TestE5GoldenProgram(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "e5_paper_program.dol"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := E5Program()
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("generated program diverged from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestF2ImportScaling exercises Figure 2's dictionary architecture:
// IMPORT DATABASE copies a local conceptual schema of any size into the
// GDD, table for table.
func TestF2ImportScaling(t *testing.T) {
	for _, n := range []int{2, 8, 32} {
		srv := ldbms.NewServer("svc_big", ldbms.ProfileOracleLike(), 1)
		if err := srv.CreateDatabase("big"); err != nil {
			t.Fatal(err)
		}
		sess, err := srv.OpenSession("big")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := sess.Exec(fmt.Sprintf("CREATE TABLE tab%d (id INTEGER, name CHAR(20), val FLOAT)", i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Commit(); err != nil {
			t.Fatal(err)
		}
		local, err := sess.ListTables()
		if err != nil {
			t.Fatal(err)
		}
		sess.Close()

		fed := core.New()
		fed.RegisterClient("svc_big", lam.NewLocal(srv))
		if _, err := fed.ExecScript("INCORPORATE SERVICE svc_big CONNECTMODE CONNECT COMMITMODE NOCOMMIT\nIMPORT DATABASE big FROM SERVICE svc_big"); err != nil {
			t.Fatal(err)
		}
		db, err := fed.GDD.Database("big")
		if err != nil {
			t.Fatal(err)
		}
		if len(local) != n || len(db.Tables) != len(local) {
			t.Errorf("local schema has %d tables (created %d), GDD has %d after IMPORT", len(local), n, len(db.Tables))
		}
	}
}

// hotRowElapsed runs workers × ops updates of one hot row, each followed
// by hold of simulated global-transaction work. With early set the
// update commits before the work, as a compensating (autocommit) site
// does; otherwise it stays prepared, locks held, across the work and
// commits after, as 2PC requires.
func hotRowElapsed(t *testing.T, workers, ops int, hold time.Duration, early bool) time.Duration {
	t.Helper()
	srv := ldbms.NewServer("b3", ldbms.ProfileOracleLike(), 1)
	if err := srv.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	boot, err := srv.OpenSession("db")
	if err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{"CREATE TABLE hot (id INTEGER, val FLOAT)", "INSERT INTO hot VALUES (1, 0.0)"} {
		if _, err := boot.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if err := boot.Commit(); err != nil {
		t.Fatal(err)
	}
	boot.Close()

	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := srv.OpenSession("db")
			if err != nil {
				errs[w] = err
				return
			}
			defer sess.Close()
			sess.SetLockTimeout(30 * time.Second)
			for i := 0; i < ops && errs[w] == nil; i++ {
				if _, err := sess.Exec("UPDATE hot SET val = val + 1 WHERE id = 1"); err != nil {
					errs[w] = err
					return
				}
				if early {
					errs[w] = sess.Commit()
					time.Sleep(hold)
				} else if errs[w] = sess.Prepare(); errs[w] == nil {
					time.Sleep(hold)
					errs[w] = sess.Commit()
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start)
}

// TestB3EarlyRelease holds §3.4's claim that compensation may improve
// performance "through earlier release of the resources held by global
// transactions": in one run, four workers on one hot row must reach at
// least 1.5x the throughput when each commits before its 2 ms of
// global-transaction work than when it stays prepared across it (about
// 4x when measured: the prepared run is serialized on the table lock).
func TestB3EarlyRelease(t *testing.T) {
	const workers, ops, hold = 4, 8, 2 * time.Millisecond
	held := hotRowElapsed(t, workers, ops, hold, false)
	early := hotRowElapsed(t, workers, ops, hold, true)
	ratio := float64(held) / float64(early)
	t.Logf("%d ops: prepared across the work %v, committed before it %v (%.1fx)", workers*ops, held, early, ratio)
	if ratio < 1.5 {
		t.Errorf("early release is %.2fx the 2PC-hold throughput, want >= 1.5x", ratio)
	}
}

// TestB4Substitution checks the cost driver of multiple identifier
// substitution: a pattern generates one elementary query per matching
// table of the GDD, an exact name exactly one, however large the
// dictionary.
func TestB4Substitution(t *testing.T) {
	for _, n := range []int{1, 8, 64} {
		gdd := catalog.NewGDD()
		gdd.DefineDatabase("big", "svc")
		for i := 0; i < n; i++ {
			def := catalog.TableDef{Name: fmt.Sprintf("tab%d", i)}
			for c := 0; c < 4; c++ {
				def.Columns = append(def.Columns, schema.Column{Name: fmt.Sprintf("c%d", c), Type: sqlval.KindString})
			}
			if err := gdd.PutTable("big", def); err != nil {
				t.Fatal(err)
			}
		}
		scope := []semvar.ScopeEntry{{Database: "big", Name: "big"}}
		for q, want := range map[string]int{"SELECT c0 FROM tab%": n, "SELECT c0 FROM tab0": 1} {
			body, err := sqlparser.ParseStatement(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := semvar.Expand(gdd, scope, nil, body)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Queries) != want {
				t.Errorf("%d tables: %q generated %d queries, want %d", n, q, len(res.Queries), want)
			}
		}
	}
}

// planShape summarizes a DOL program: NOCOMMIT tasks, whether a branch
// tests a task for the prepared state, and whether any task runs only
// inside a branch (a compensating subquery).
type planShape struct {
	NoCommit   int
	IfPrepared bool
	Comp       bool
}

func shapeOf(stmts []dol.Stmt, nested bool, s *planShape) {
	for _, st := range stmts {
		switch x := st.(type) {
		case *dol.TaskStmt:
			if x.NoCommit {
				s.NoCommit++
			}
			s.Comp = s.Comp || nested
		case *dol.IfStmt:
			s.IfPrepared = s.IfPrepared || testsPrepared(x.Cond)
			shapeOf(x.Then, true, s)
			shapeOf(x.Else, true, s)
		}
	}
}

func testsPrepared(c dol.Cond) bool {
	switch x := c.(type) {
	case *dol.StatusCond:
		return x.Status == dol.StatusPrepared
	case *dol.AndCond:
		return testsPrepared(x.L) || testsPrepared(x.R)
	case *dol.OrCond:
		return testsPrepared(x.L) || testsPrepared(x.R)
	case *dol.NotCond:
		return testsPrepared(x.X)
	}
	return false
}

// TestB7ConsistencyLevels holds §3.2.1: "different query evaluation
// plans are possible for the same multiple query, depending on the
// required level of consistency". The same update translates, under
// DryRun, to a best-effort plan with no synchronization, a 2PC plan that
// holds both vital members prepared, and a plan that trades one prepared
// member for a compensating subquery.
func TestB7ConsistencyLevels(t *testing.T) {
	noVital := `
USE continental delta united
UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston' AND dest% = 'San Antonio'
`
	for _, v := range []struct {
		name     string
		script   string
		contAuto bool
		want     planShape
	}{
		{"NON VITAL everywhere", noVital, false, planShape{}},
		{"vital set via 2PC", Section32Update, false, planShape{NoCommit: 2, IfPrepared: true}},
		{"vital set via compensation", Section33Update, true, planShape{NoCommit: 1, IfPrepared: true, Comp: true}},
	} {
		fed, err := demo.Build(demo.Options{Seed: 1, ContinentalAutoCommit: v.contAuto})
		if err != nil {
			t.Fatal(err)
		}
		fed.DryRun = true
		results, err := fed.ExecScript(v.script)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		var got planShape
		for _, r := range results {
			if r.DOL == "" {
				continue
			}
			prog, err := dol.Parse(r.DOL)
			if err != nil {
				t.Fatalf("%s: %v", v.name, err)
			}
			shapeOf(prog.Stmts, false, &got)
		}
		if got != v.want {
			t.Errorf("%s: plan shape %+v, want %+v", v.name, got, v.want)
		}
	}
}

// TestB8SyncGranularity holds §3.2.2's deferred synchronization: k vital
// updates synchronized after every statement prepare the vital site k
// times, the same updates in one unit prepare it once.
func TestB8SyncGranularity(t *testing.T) {
	const batch = 3
	update := "UPDATE cars SET rate = rate + 1 WHERE code = 1\n"
	for _, v := range []struct {
		name   string
		script string
		want   int64
	}{
		{"sync after every statement", "USE avis VITAL\n" + strings.Repeat(update+"COMMIT\n", batch), batch},
		{"one deferred sync point", "USE avis VITAL\n" + strings.Repeat(update, batch) + "COMMIT\n", 1},
	} {
		fed, err := demo.Build(demo.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		before := fed.Server("svc_avis").Stats().Prepares
		if _, err := fed.ExecScript(v.script); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if got := fed.Server("svc_avis").Stats().Prepares - before; got != v.want {
			t.Errorf("%s: avis prepared %d times, want %d", v.name, got, v.want)
		}
	}
}

// TestB10ObservabilityOverhead holds the observability plane to its
// budget: EXPLAIN ANALYZE with a catch-all slow-query log costs at most
// 2x the plain statement measured in the same run, and the reference
// join still decomposes into the same 15-node federation plan.
func TestB10ObservabilityOverhead(t *testing.T) {
	const iters = 50
	fed, err := demo.Build(demo.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const join = "SELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.rate < u.rates"
	mean := func(script string) time.Duration {
		t.Helper()
		if _, err := fed.ExecScript(script); err != nil { // warm-up
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := fed.ExecScript(script); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / iters
	}
	plain := mean("USE continental united\n" + join)
	// ANALYZE with the slow-query log catching everything: the worst case
	// a production -slow-query-ms setting can configure.
	obs.SetSlowQueryLog(obs.NewSlowQueryLog(io.Discard, time.Nanosecond))
	analyzeScript := "USE continental united\nEXPLAIN ANALYZE " + join
	analyze := mean(analyzeScript)
	obs.SetSlowQueryLog(nil)

	results, err := fed.ExecScript(analyzeScript)
	if err != nil {
		t.Fatal(err)
	}
	nodes := 0
	var count func(n *obs.PlanNode)
	count = func(n *obs.PlanNode) {
		nodes++
		for _, c := range n.Children {
			count(c)
		}
	}
	count(results[len(results)-1].Plan)
	if nodes != 15 {
		t.Errorf("federation plan has %d nodes, want 15", nodes)
	}
	if analyze > 2*plain {
		t.Errorf("EXPLAIN ANALYZE %v is over 2x the plain statement's %v", analyze, plain)
	}
}
