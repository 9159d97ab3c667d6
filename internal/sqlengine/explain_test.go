package sqlengine_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"msql/internal/relbackend"
	"msql/internal/relstore"
	"msql/internal/sqlengine"
)

// pagedStore builds a database with a small driver table and a large
// keyed table spanning many heap pages, so page-accounting differences
// between access paths are visible.
func pagedStore(t testing.TB) *relstore.Store {
	t.Helper()
	s := relstore.NewStore()
	if err := s.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	setup := []string{
		`CREATE TABLE drivers (id INTEGER, note CHAR(10))`,
		`INSERT INTO drivers VALUES (7, 'a'), (211, 'b'), (499, 'c')`,
		`CREATE TABLE big (id INTEGER PRIMARY KEY, pad CHAR(60), val INTEGER)`,
	}
	for _, q := range setup {
		if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", q); err != nil {
			t.Fatalf("setup %q: %v", q, err)
		}
	}
	for i := 0; i < 500; i += 50 {
		var vals []string
		for j := i; j < i+50; j++ {
			vals = append(vals, fmt.Sprintf("(%d, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx', %d)", j, j%13))
		}
		q := "INSERT INTO big VALUES " + strings.Join(vals, ", ")
		if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", q); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestExplainPlainDoesNotExecute(t *testing.T) {
	s := pagedStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", `EXPLAIN SELECT * FROM big WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0].Name != "QUERY PLAN" {
		t.Fatalf("columns = %v", res.ColumnNames())
	}
	if res.Plan == nil {
		t.Fatal("no plan attached")
	}
	if res.Plan.Analyzed {
		t.Fatal("plain EXPLAIN must not execute")
	}
	if res.Plan.Find("index-probe") == nil && res.Plan.Find("scan") == nil {
		t.Fatalf("plan has no access-path node: %s", res.Plan.Render())
	}
	if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", `EXPLAIN INSERT INTO drivers VALUES (1, 'x')`); err == nil {
		t.Fatal("EXPLAIN of a non-SELECT must be rejected")
	}
}

func TestExplainAnalyzeRowsMatchPlainSelect(t *testing.T) {
	s := pagedStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	const q = `SELECT d.id, b.val FROM drivers d, big b WHERE b.id = d.id ORDER BY d.id`
	plain, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", q)
	if err != nil {
		t.Fatal(err)
	}
	analyzed, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", "EXPLAIN ANALYZE "+q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Rows, analyzed.Rows) {
		t.Fatalf("ANALYZE changed the result: %v vs %v", plain.Rows, analyzed.Rows)
	}
	p := analyzed.Plan
	if p == nil || !p.Analyzed {
		t.Fatal("no analyzed plan attached")
	}
	if p.Rows != int64(len(plain.Rows)) {
		t.Fatalf("root rows = %d, result has %d", p.Rows, len(plain.Rows))
	}
	probe := p.Find("index-probe")
	if probe == nil {
		t.Fatalf("expected an index-probe node:\n%s", p.Render())
	}
	if probe.Rows != int64(len(plain.Rows)) || probe.Loops != 3 {
		t.Fatalf("probe rows=%d loops=%d, want rows=%d loops=3", probe.Rows, probe.Loops, len(plain.Rows))
	}
}

// TestExplainProbeReadsFewerPagesThanScan is the acceptance ablation:
// the index-probe path must touch fewer heap pages than the same join
// over the same rows in a table declared without a PRIMARY KEY, which
// offers the planner no key to probe and is read in full.
func TestExplainProbeReadsFewerPagesThanScan(t *testing.T) {
	s := pagedStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	for _, q := range []string{
		`CREATE TABLE keyless (id INTEGER, pad CHAR(60), val INTEGER)`,
		`INSERT INTO keyless SELECT id, pad, val FROM big`,
	} {
		if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	run := func(table string) (pages int64, op string) {
		q := `EXPLAIN ANALYZE SELECT d.id, b.val FROM drivers d, ` + table + ` b WHERE b.id = d.id`
		res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("%s: %d rows, want 3", table, len(res.Rows))
		}
		// The inner level's node is the access path onto the big table.
		for _, cand := range []string{"index-probe", "hash-join", "scan"} {
			for _, n := range res.Plan.FindAll(cand) {
				if strings.HasPrefix(n.Detail, "b ") || n.Detail == "b" {
					return n.PageHits + n.PageMisses, n.Op
				}
			}
		}
		t.Fatalf("no node for %s:\n%s", table, res.Plan.Render())
		return 0, ""
	}
	probePages, probeOp := run("big")
	scanPages, scanOp := run("keyless")
	if probeOp != "index-probe" {
		t.Fatalf("keyed path is %s, want index-probe", probeOp)
	}
	if scanOp == "index-probe" {
		t.Fatal("a table without a key cannot be probed")
	}
	if probePages >= scanPages {
		t.Fatalf("index-probe read %d pages, the keyless %s %d — probe must be cheaper", probePages, scanOp, scanPages)
	}

	// Writes find their rows with the same planner: a keyed UPDATE or
	// DELETE probes, the same statement on the keyless copy reads it all.
	write := func(q string) (pages int64, op string) {
		res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", "EXPLAIN ANALYZE "+q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if res.RowsAffected != 1 || res.Plan.Rows != 1 || len(res.Plan.Children) != 1 {
			t.Fatalf("%q: %d rows affected, plan:\n%s", q, res.RowsAffected, res.Plan.Render())
		}
		path := res.Plan.Children[0]
		return path.PageHits + path.PageMisses, res.Plan.Op + "/" + path.Op
	}
	for _, w := range []struct{ verb, q string }{
		{"update", `UPDATE %s SET val = val + 1 WHERE id = 211`},
		{"delete", `DELETE FROM %s WHERE id = 211`},
	} {
		probePages, probeOp := write(fmt.Sprintf(w.q, "big"))
		scanPages, scanOp := write(fmt.Sprintf(w.q, "keyless"))
		if probeOp != w.verb+"/index-probe" || scanOp != w.verb+"/scan" {
			t.Fatalf("keyed %s is %s, keyless is %s", w.verb, probeOp, scanOp)
		}
		if probePages >= scanPages {
			t.Fatalf("%s: index-probe read %d pages, the keyless scan %d — probe must be cheaper", w.verb, probePages, scanPages)
		}
	}
}

// TestConcurrentAnalyzePageCountsDoNotBleed runs two different ANALYZE
// statements concurrently against the same store and requires every run
// to report exactly the page counts of a solo run: per-statement
// counters must not leak across concurrently executing statements.
func TestConcurrentAnalyzePageCountsDoNotBleed(t *testing.T) {
	s := pagedStore(t)
	pagesOf := func(q string) int64 {
		tx := s.Begin()
		defer tx.Rollback()
		res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Plan.PageHits + res.Plan.PageMisses
	}
	const qBig = `EXPLAIN ANALYZE SELECT COUNT(val) FROM big`
	const qSmall = `EXPLAIN ANALYZE SELECT id FROM drivers`
	wantBig := pagesOf(qBig)
	wantSmall := pagesOf(qSmall)
	if wantBig <= wantSmall {
		t.Fatalf("setup: big scan (%d pages) must dwarf small scan (%d pages)", wantBig, wantSmall)
	}
	const iters = 40
	var wg sync.WaitGroup
	errs := make(chan error, 2*iters)
	for _, tc := range []struct {
		q    string
		want int64
	}{{qBig, wantBig}, {qSmall, wantSmall}} {
		wg.Add(1)
		go func(q string, want int64) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				tx := s.Begin()
				res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "db", q)
				if err != nil {
					tx.Rollback()
					errs <- err
					return
				}
				got := res.Plan.PageHits + res.Plan.PageMisses
				tx.Rollback()
				if got != want {
					errs <- fmt.Errorf("%s: %d pages on iteration %d, solo run reads %d — counters bled", q, got, i, want)
					return
				}
			}
		}(tc.q, tc.want)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
