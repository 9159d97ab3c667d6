package sqlengine_test

import (
	"strings"
	"testing"

	"msql/internal/obs"
	"msql/internal/relbackend"
	"msql/internal/relstore"
	"msql/internal/sqlengine"
)

// keyedScript adds PRIMARY KEY tables to paperScript's database so the
// planner has indexes to probe.
var keyedScript = []string{
	`CREATE TABLE seats (snu INTEGER PRIMARY KEY, owner CHAR(20))`,
	`INSERT INTO seats VALUES (1, 'ng'), (2, 'smith'), (3, NULL), (4, 'jones'), (100, 'root')`,
	`CREATE TABLE legs (flnu INTEGER, seq INTEGER, stop CHAR(20), PRIMARY KEY (flnu, seq))`,
	`INSERT INTO legs VALUES
		(100, 1, 'Houston'), (100, 2, 'San Antonio'),
		(102, 1, 'Houston'), (102, 2, 'Dallas'), (103, 1, 'Austin')`,
}

// keyedStore is paperStore plus keyedScript.
func keyedStore(t testing.TB) *relstore.Store {
	t.Helper()
	s := paperStore(t)
	runScript(t, s, "continental", keyedScript)
	return s
}

// levelOps plans q without executing it and returns the access path the
// planner chose for each FROM source, outermost first.
func levelOps(t *testing.T, tx *relstore.Tx, q string) []*obs.PlanNode {
	t.Helper()
	res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", "EXPLAIN "+q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Plan.Children
}

func TestPlannerChoosesIndexProbe(t *testing.T) {
	s := keyedStore(t)
	tx := s.Begin()
	defer tx.Rollback()

	cases := []struct {
		q     string
		probe map[int]bool // level -> probe expected
	}{
		{`SELECT * FROM seats WHERE snu = 2`, map[int]bool{0: true}},
		{`SELECT * FROM seats WHERE 2 = snu`, map[int]bool{0: true}},
		{`SELECT * FROM seats WHERE snu = 2 AND owner = 'x'`, map[int]bool{0: true}},
		// Non-key predicate, inequality, or missing key column: no probe.
		{`SELECT * FROM seats WHERE owner = 'x'`, map[int]bool{0: false}},
		{`SELECT * FROM seats WHERE snu > 2`, map[int]bool{0: false}},
		{`SELECT * FROM legs WHERE flnu = 100`, map[int]bool{0: false}},
		// Composite key fully pinned, in either order.
		{`SELECT * FROM legs WHERE flnu = 100 AND seq = 2`, map[int]bool{0: true}},
		{`SELECT * FROM legs WHERE seq = 2 AND flnu = 100`, map[int]bool{0: true}},
		// The probe side must reference earlier levels only: the outer
		// flights scan cannot probe, the inner seats lookup can.
		{`SELECT * FROM flights f, seats s WHERE s.snu = f.flnu`, map[int]bool{0: false, 1: true}},
		// A key equality against a *later* level is a hash opportunity
		// for that level, not a probe for this one.
		{`SELECT * FROM seats s, flights f WHERE s.snu = f.flnu`, map[int]bool{0: false, 1: false}},
		// Self-reference pins nothing.
		{`SELECT * FROM seats WHERE snu = snu`, map[int]bool{0: false}},
		// Tables without a declared key never probe.
		{`SELECT * FROM flights WHERE flnu = 100`, map[int]bool{0: false}},
	}
	for _, c := range cases {
		levels := levelOps(t, tx, c.q)
		for lvl, want := range c.probe {
			if got := levels[lvl].Op == "index-probe"; got != want {
				t.Errorf("%q level %d: probe=%v, want %v", c.q, lvl, got, want)
			}
		}
	}
}

func TestPlannerProbeRetainsFilters(t *testing.T) {
	s := keyedStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	lvl := levelOps(t, tx, `SELECT * FROM seats WHERE snu = 2 AND owner = 'smith'`)[0]
	if lvl.Op != "index-probe" {
		t.Fatalf("expected an index probe, got %s", lvl.Op)
	}
	if !strings.Contains(lvl.Detail, "filter(snu = 2 AND owner = 'smith')") {
		t.Fatalf("probe must keep both conjuncts as filters, got %q", lvl.Detail)
	}
}

// TestProbeSeesUncommittedWrites guards the access-path contract: an
// index probe must observe the transaction's own uncommitted inserts,
// updates and deletes exactly as a scan would.
func TestProbeSeesUncommittedWrites(t *testing.T) {
	s := keyedStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	mustExec := func(q string) {
		t.Helper()
		if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	q := func(q string) *sqlengine.Result {
		t.Helper()
		res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		return res
	}
	mustExec(`INSERT INTO seats VALUES (50, 'new')`)
	if res := q(`SELECT owner FROM seats WHERE snu = 50`); len(res.Rows) != 1 || res.Rows[0][0].String() != "new" {
		t.Fatalf("uncommitted insert invisible to probe: %+v", res.Rows)
	}
	mustExec(`UPDATE seats SET snu = 60 WHERE snu = 50`)
	if res := q(`SELECT * FROM seats WHERE snu = 50`); len(res.Rows) != 0 {
		t.Fatalf("stale key still probes after key update: %+v", res.Rows)
	}
	if res := q(`SELECT owner FROM seats WHERE snu = 60`); len(res.Rows) != 1 {
		t.Fatalf("moved key invisible to probe: %+v", res.Rows)
	}
	mustExec(`DELETE FROM seats WHERE snu = 60`)
	if res := q(`SELECT * FROM seats WHERE snu = 60`); len(res.Rows) != 0 {
		t.Fatalf("deleted key still probes: %+v", res.Rows)
	}
}

// TestExplainShowsSargs runs the paper's decomposed subquery: the scan
// of flights hands "rate < 110" to the storage as a sarg and keeps it as
// a filter, and a hash-join level shows the sargs of its build scan.
// Under ANALYZE a level's rows and pages mean what they meant without
// sargs: the same query with the conjunct written so that it cannot be
// a sarg reports the same counts.
func TestExplainShowsSargs(t *testing.T) {
	s := keyedStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	lvls := levelOps(t, tx, `SELECT owner FROM flights f, seats s WHERE s.snu = f.flnu AND f.rate < 110`)
	if got, want := lvls[0].Op+" "+lvls[0].Detail, "scan f sarg(rate < 110) filter(f.rate < 110)"; got != want {
		t.Errorf("level 0 = %q, want %q", got, want)
	}
	if lvls[1].Op != "index-probe" || strings.Contains(lvls[1].Detail, "sarg(") {
		t.Errorf("level 1 = %s %q, want an index probe without sargs", lvls[1].Op, lvls[1].Detail)
	}
	lvls = levelOps(t, tx, `SELECT f.flnu, c.seatnu FROM flights f, f838 c WHERE c.seatnu = f.flnu - 99 AND 'FREE' = c.seatstatus`)
	if got, want := lvls[1].Op+" "+lvls[1].Detail,
		"hash-join c build(c.seatnu) probe(f.flnu - 99) sarg(seatstatus = 'FREE') filter(c.seatnu = f.flnu - 99 AND 'FREE' = c.seatstatus)"; got != want {
		t.Errorf("level 1 = %q, want %q", got, want)
	}

	analyze := func(q string) []*obs.PlanNode {
		t.Helper()
		res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", "EXPLAIN ANALYZE "+q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Plan.Children
	}
	for _, pair := range [][2]string{
		{`SELECT owner FROM flights f, seats s WHERE s.snu = f.flnu AND f.rate < 110`,
			`SELECT owner FROM flights f, seats s WHERE s.snu = f.flnu AND f.rate + 0 < 110`},
		{`SELECT f.flnu, c.seatnu FROM flights f, f838 c WHERE c.seatnu = f.flnu - 99 AND 'FREE' = c.seatstatus`,
			`SELECT f.flnu, c.seatnu FROM flights f, f838 c WHERE c.seatnu = f.flnu - 99 AND ('FREE' = c.seatstatus OR 1 = 0)`},
	} {
		with, without := analyze(pair[0]), analyze(pair[1])
		if !strings.Contains(with[0].Detail+with[1].Detail, "sarg(") || strings.Contains(without[0].Detail+without[1].Detail, "sarg(") {
			t.Fatalf("sarg placement: %q %q / %q %q", with[0].Detail, with[1].Detail, without[0].Detail, without[1].Detail)
		}
		for i := range with {
			w, o := with[i], without[i]
			if w.Rows != o.Rows || w.Loops != o.Loops || w.PageHits+w.PageMisses != o.PageHits+o.PageMisses {
				t.Errorf("%s level %d: rows/loops/pages %d/%d/%d with sargs, %d/%d/%d without",
					pair[0], i, w.Rows, w.Loops, w.PageHits+w.PageMisses, o.Rows, o.Loops, o.PageHits+o.PageMisses)
			}
		}
	}
}
