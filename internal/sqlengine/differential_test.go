package sqlengine_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"msql/internal/backend"
	"msql/internal/csvstore"
	"msql/internal/relbackend"
	"msql/internal/relstore"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// The cross-backend differential test: the same fixture is loaded into a
// memory relstore, a disk relstore whose pool is smaller than the data,
// and a csvstore, and every statement runs through backend.Tx.Exec — the
// one executor over each storage's adapter — on all three. The memory
// relstore is the reference; any difference in columns, rows, affected
// counts or errors is an adapter bug (mis-ordered cursor, lost NULL,
// different coercion).

// diffSite is one backend under test.
type diffSite struct {
	name  string
	be    backend.Backend
	views bool // the storage keeps views
}

func (s diffSite) exec(t *testing.T, q string, commit bool) (*sqlengine.Result, error) {
	t.Helper()
	results, err := s.execAll(t, []string{q}, commit)
	return results[0], err
}

// execAll runs qs in one transaction, which commits only when asked to
// and every statement succeeded; the first error ends the sequence.
// results has one entry per statement, nil from the failed one on.
func (s diffSite) execAll(t *testing.T, qs []string, commit bool) ([]*sqlengine.Result, error) {
	t.Helper()
	results := make([]*sqlengine.Result, len(qs))
	tx := s.be.Begin()
	tx.UseTemps(&sqlengine.Temps{})
	for i, q := range qs {
		stmt, err := sqlparser.ParseStatement(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		if results[i], err = tx.Exec("continental", q, stmt); err != nil {
			tx.Rollback()
			return results, err
		}
	}
	if !commit {
		tx.Rollback()
		return results, nil
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("%s: commit %q: %v", s.name, qs, err)
	}
	return results, nil
}

// bigScript is a keyed table of 500 padded rows: about ten heap pages,
// more than the disk site's eight-frame pool.
func bigScript() []string {
	script := []string{`CREATE TABLE big (id INTEGER PRIMARY KEY, pad CHAR(60), val INTEGER)`}
	for i := 0; i < 500; i += 50 {
		var vals []string
		for j := i; j < i+50; j++ {
			vals = append(vals, fmt.Sprintf("(%d, 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx', %d)", j, j%13))
		}
		script = append(script, "INSERT INTO big VALUES "+strings.Join(vals, ", "))
	}
	return script
}

// openDiffSites loads the fixture into the three backends. The two
// durable ones are closed and reopened after loading, so what the
// queries read has been through the heap files and the CSV files. The
// disk site's store is returned too, for its pool counters.
func openDiffSites(t *testing.T) ([]diffSite, *relstore.Store) {
	t.Helper()
	script := append(append(append([]string(nil), paperScript...), keyedScript...), bigScript()...)
	load := func(s diffSite) {
		if err := s.be.CreateDatabase("continental"); err != nil {
			t.Fatal(err)
		}
		for _, q := range script {
			if _, err := s.exec(t, q, true); err != nil {
				t.Fatalf("%s: load %q: %v", s.name, q, err)
			}
		}
		if s.views {
			if _, err := s.exec(t, `CREATE VIEW cheap AS SELECT flnu, rate FROM flights WHERE rate < 110.0`, true); err != nil {
				t.Fatal(err)
			}
		}
	}

	mem := diffSite{"mem", relbackend.New(relstore.NewStore()), true}
	load(mem)

	diskDir, csvDir := t.TempDir(), t.TempDir()
	openDisk := func() (diffSite, *relstore.Store) {
		st, err := relstore.Open(relstore.Options{Dir: diskDir, PoolPages: 8})
		if err != nil {
			t.Fatal(err)
		}
		return diffSite{"disk", relbackend.New(st), true}, st
	}
	disk, _ := openDisk()
	load(disk)
	if err := disk.be.Close(); err != nil {
		t.Fatal(err)
	}
	disk, diskStore := openDisk()
	t.Cleanup(func() { disk.be.Close() })

	openCSV := func() diffSite {
		cs, err := csvstore.Open(csvDir)
		if err != nil {
			t.Fatal(err)
		}
		return diffSite{"csv", cs, false}
	}
	load(openCSV())
	return []diffSite{mem, disk, openCSV()}, diskStore
}

// bag renders rows order-insensitively.
func bag(rows [][]sqlval.Value) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%#v", r)
	}
	sort.Strings(out)
	return out
}

// sameOutcome requires got to match the reference: same error or the
// same columns, affected count and rows — as a list when the statement
// orders its output, as a bag otherwise.
func sameOutcome(t *testing.T, site, q string, ref, got *sqlengine.Result, refErr, gotErr error) {
	t.Helper()
	if refErr != nil || gotErr != nil {
		if refErr == nil || gotErr == nil || refErr.Error() != gotErr.Error() {
			t.Errorf("%s: %q: err = %v, reference err = %v", site, q, gotErr, refErr)
		}
		return
	}
	if !reflect.DeepEqual(ref.Columns, got.Columns) {
		t.Errorf("%s: %q: columns %v, reference %v", site, q, got.Columns, ref.Columns)
	}
	if ref.RowsAffected != got.RowsAffected {
		t.Errorf("%s: %q: %d rows affected, reference %d", site, q, got.RowsAffected, ref.RowsAffected)
	}
	stmt, _ := sqlparser.ParseStatement(q)
	sel, _ := stmt.(*sqlparser.SelectStmt)
	if sel != nil && len(sel.OrderBy) > 0 {
		if !reflect.DeepEqual(ref.Rows, got.Rows) {
			t.Errorf("%s: %q: ordered rows differ\n got %v\nwant %v", site, q, got.Rows, ref.Rows)
		}
	} else if !reflect.DeepEqual(bag(ref.Rows), bag(got.Rows)) {
		t.Errorf("%s: %q: rows differ\n got %v\nwant %v", site, q, got.Rows, ref.Rows)
	}
}

func TestBackendsAgree(t *testing.T) {
	queries := []string{
		// Scans and projections, NULLs included.
		`SELECT * FROM flights`,
		`SELECT * FROM f838`,
		`SELECT flnu, rate * 2 FROM flights WHERE rate >= 80.0`,
		`SELECT 1 + 2, 'x'`,
		`SELECT seatnu FROM f838 WHERE clientname IS NULL`,
		`SELECT COUNT(*), COUNT(clientname), COUNT(owner) FROM f838, seats WHERE seatnu = snu`,
		// Point lookups eligible for index probes, including coercions.
		`SELECT * FROM seats WHERE snu = 2`,
		`SELECT * FROM seats WHERE snu = '2'`,
		`SELECT * FROM seats WHERE snu = 2.0`,
		`SELECT * FROM seats WHERE snu = 2.5`,
		`SELECT * FROM seats WHERE snu = 'two'`,
		`SELECT * FROM seats WHERE snu = NULL`,
		`SELECT * FROM seats WHERE snu = 1 + 1`,
		`SELECT * FROM seats WHERE 2 = snu AND owner IS NOT NULL`,
		`SELECT * FROM seats WHERE snu = 3 AND owner = 'smith'`,
		`SELECT pad, val FROM big WHERE id = 377`,
		// Composite key: full pin probes, partial pin scans.
		`SELECT * FROM legs WHERE flnu = 100 AND seq = 2`,
		`SELECT * FROM legs WHERE seq = 1 AND flnu = 102`,
		`SELECT * FROM legs WHERE flnu = 100`,
		`SELECT * FROM legs WHERE seq = 1`,
		// Joins: index-nested-loop, hash, cartesian, self-join.
		`SELECT f.flnu, s.owner FROM flights f, seats s WHERE s.snu = f.flnu - 99`,
		`SELECT f.flnu, l.stop FROM flights f, legs l WHERE l.flnu = f.flnu AND l.seq = 2`,
		`SELECT f.day, s.seatty FROM flights f, f838 s WHERE f.flnu = 100 AND s.seatstatus = 'FREE'`,
		`SELECT a.flnu, b.flnu FROM flights a, flights b WHERE a.day = b.day AND a.rate < b.rate`,
		`SELECT f.flnu, l.stop, s.owner FROM flights f, legs l, seats s
			WHERE l.flnu = f.flnu AND l.seq = 1 AND s.snu = l.seq`,
		`SELECT s.owner, b.val FROM seats s, big b WHERE b.id = s.snu`,
		`SELECT COUNT(*) FROM big a, big b WHERE a.val = b.id`,
		// Aggregates, grouping, having.
		`SELECT COUNT(*), MIN(rate), MAX(rate) FROM flights`,
		`SELECT day, COUNT(*), AVG(rate) FROM flights GROUP BY day ORDER BY day`,
		`SELECT destination, COUNT(*) FROM flights GROUP BY destination HAVING COUNT(*) > 1`,
		`SELECT val, COUNT(*), SUM(id) FROM big GROUP BY val ORDER BY val`,
		// Subqueries, IN, correlation.
		`SELECT flnu FROM flights WHERE rate > (SELECT AVG(rate) FROM flights)`,
		`SELECT flnu FROM flights f WHERE rate >= (SELECT MAX(rate) FROM flights WHERE day = f.day)`,
		`SELECT owner FROM seats WHERE snu IN (SELECT seatnu FROM f838 WHERE seatstatus = 'FREE')`,
		`SELECT flnu FROM flights WHERE day IN ('mon', 'wed')`,
		// ORDER BY, DISTINCT, LIMIT in every combination that matters. A
		// LIMIT without ORDER BY depends on cursor order being insertion
		// order on every backend.
		`SELECT flnu FROM flights ORDER BY rate DESC`,
		`SELECT flnu FROM flights LIMIT 2`,
		`SELECT flnu FROM flights LIMIT 0`,
		`SELECT flnu FROM flights ORDER BY rate LIMIT 2`,
		`SELECT id FROM big WHERE val = 4 LIMIT 3`,
		`SELECT source, flnu FROM flights ORDER BY source`,
		`SELECT DISTINCT day FROM flights`,
		`SELECT DISTINCT source FROM flights LIMIT 1`,
		// UNION.
		`SELECT source FROM flights UNION SELECT destination FROM flights`,
		`SELECT flnu FROM flights WHERE day = 'mon' UNION ALL SELECT snu FROM seats WHERE snu = 2`,
		// EXPLAIN ANALYZE returns the statement's own rows.
		`EXPLAIN ANALYZE SELECT owner FROM seats WHERE snu = 4`,
	}
	viewQueries := []string{
		`SELECT * FROM cheap ORDER BY flnu`,
		`SELECT flnu FROM cheap WHERE rate < 90.0`,
	}
	// Writes every backend must apply identically: multi-row updates and
	// deletes (positions must stay valid while the statement writes),
	// coercions on the way in, INSERT ... SELECT.
	writes := []string{
		`INSERT INTO seats VALUES (5, 'lee'), (6, NULL)`,
		`INSERT INTO seats (snu) VALUES ('7')`,
		`UPDATE flights SET rate = rate * 1.5 WHERE source = 'Houston'`,
		`UPDATE flights SET rate = 70 WHERE flnu = 103`,
		`UPDATE seats SET owner = 'nobody' WHERE owner IS NULL`,
		`UPDATE seats SET snu = '8' WHERE snu = 7`,
		`UPDATE big SET val = val + 100 WHERE val < 3`,
		`DELETE FROM big WHERE val = 5 OR id > 450`,
		`DELETE FROM legs WHERE seq = 2`,
		`INSERT INTO legs SELECT flnu, 9, source FROM flights WHERE day = 'mon'`,
		`DELETE FROM f838 WHERE seatnu IN (SELECT snu FROM seats WHERE owner = 'nobody')`,
	}
	// Keyed writes find their rows through the SELECT planner: where the
	// WHERE pins the whole primary key the relstore sites probe the index
	// and the csv site, which keeps none, scans — so each statement here
	// compares the two access paths. Reads between them see what the
	// index holds after the write before.
	keyedWrites := []string{
		// Point writes by full key; a miss; a repeat that now misses.
		`UPDATE seats SET owner = 'point' WHERE snu = 2`,
		`UPDATE big SET val = -1 WHERE id = 377`,
		`DELETE FROM big WHERE id = 12`,
		`DELETE FROM big WHERE id = 12`,
		`UPDATE big SET val = 0 WHERE id = 100000`,
		// The pinning equality is only the access path: the rest of the
		// WHERE still has to hold for the probed row.
		`UPDATE seats SET owner = 'residual' WHERE snu = 1 AND owner = 'smith'`,
		`DELETE FROM seats WHERE snu = 1 AND owner IS NULL`,
		`UPDATE seats SET owner = 'both' WHERE snu = 1 AND owner = 'ng'`,
		// Ranges and non-key predicates scan everywhere.
		`UPDATE big SET val = -2 WHERE id > 440 AND id < 445`,
		`DELETE FROM big WHERE id >= 448 AND val < 100`,
		// Composite key: full pin probes, partial pin scans.
		`UPDATE legs SET stop = 'full' WHERE flnu = 100 AND seq = 1`,
		`UPDATE legs SET stop = 'partial' WHERE flnu = 102`,
		`DELETE FROM legs WHERE seq = 1 AND flnu = 103`,
		`DELETE FROM legs WHERE seq = 9`,
		// Probe values that coerce to the key's kind, exactly or not.
		`UPDATE seats SET owner = 'str' WHERE snu = '2'`,
		`UPDATE seats SET owner = 'float' WHERE snu = 2.0`,
		`UPDATE seats SET owner = 'frac' WHERE snu = 2.5`,
		`UPDATE seats SET owner = 'word' WHERE snu = 'two'`,
		`UPDATE seats SET owner = 'null' WHERE snu = NULL`,
		`UPDATE seats SET owner = 'expr' WHERE snu = 1 + 1`,
		`DELETE FROM seats WHERE snu = '100'`,
		// A key-changing update moves the index entry: the old key must
		// miss and the new key must hit, for reads and writes alike.
		`UPDATE seats SET snu = snu + 100 WHERE snu = 4`,
		`SELECT * FROM seats WHERE snu = 4`,
		`SELECT * FROM seats WHERE snu = 104`,
		`UPDATE seats SET owner = 'ghost' WHERE snu = 4`,
		`UPDATE seats SET owner = 'moved' WHERE snu = 104`,
		`DELETE FROM seats WHERE snu = 104`,
	}
	// Sequences inside one transaction: the probe must see the
	// transaction's own uncommitted inserts, deletes and key changes.
	sequences := []struct {
		qs     []string
		commit bool
		fails  bool // the sequence is meant to stop at an error
	}{
		{[]string{ // insert, then write and read the new key
			`INSERT INTO seats VALUES (50, 'fresh')`,
			`UPDATE seats SET owner = 'fresher' WHERE snu = 50`,
			`SELECT * FROM seats WHERE snu = 50`,
			`DELETE FROM seats WHERE snu = 50`,
			`SELECT * FROM seats WHERE snu = 50`,
		}, true, false},
		{[]string{ // delete, then update the same key; re-insert and again
			`DELETE FROM seats WHERE snu = 2`,
			`UPDATE seats SET owner = 'zombie' WHERE snu = 2`,
			`INSERT INTO seats VALUES (2, 'reborn')`,
			`UPDATE seats SET owner = 'again' WHERE snu = 2`,
			`SELECT * FROM seats WHERE snu = 2`,
		}, true, false},
		{[]string{ // rolled back: none of this may stay in the index
			`INSERT INTO seats VALUES (60, 'doomed')`,
			`UPDATE seats SET snu = snu + 1 WHERE snu = 60`,
			`DELETE FROM seats WHERE snu = 5`,
			`UPDATE seats SET snu = 70 WHERE snu = 6`,
		}, false, false},
		{[]string{ // probes after the rollback: 60, 61, 70 miss; 5, 6 hit
			`UPDATE seats SET owner = 'r60' WHERE snu = 60`,
			`UPDATE seats SET owner = 'r61' WHERE snu = 61`,
			`UPDATE seats SET owner = 'r70' WHERE snu = 70`,
			`UPDATE seats SET owner = 'r5' WHERE snu = 5`,
			`DELETE FROM seats WHERE snu = 6`,
		}, true, false},
		{[]string{ // a temporary table: positional writes, a join, a transfer out
			`CREATE TEMPORARY TABLE tmp (flnu INTEGER, rate FLOAT, day CHAR(3))`,
			`INSERT INTO tmp SELECT flnu, rate, day FROM flights`,
			`UPDATE tmp SET rate = rate + 1 WHERE day = 'mon'`,
			`DELETE FROM tmp WHERE rate > 100`,
			`SELECT t.flnu, l.stop FROM tmp t, legs l WHERE l.flnu = t.flnu ORDER BY t.flnu, l.stop`,
			`SELECT COUNT(*), SUM(rate) FROM tmp WHERE rate > -5`,
			`INSERT INTO seats SELECT flnu + 1000, day FROM tmp`,
			`DROP TABLE tmp`,
		}, true, false},
		{[]string{ // a temporary table shadows the base table of its name
			`CREATE TEMPORARY TABLE seats (snu INTEGER, owner CHAR(10))`,
			`INSERT INTO seats VALUES (900, 'temp')`,
			`SELECT * FROM seats`,
			`DROP TABLE seats`,
			`SELECT * FROM seats WHERE snu = 2`,
		}, true, false},
		{[]string{ // an error mid-sequence rolls the earlier write back
			`UPDATE seats SET owner = 'lost' WHERE snu = 5`,
			`UPDATE seats SET snu = 'abc' WHERE snu = 5`,
		}, true, true},
	}
	// Failures must be the same error everywhere — the wire maps these
	// sentinels to codes the coordinator branches on.
	failures := []struct {
		q        string
		sentinel error // nil: only the message is compared
	}{
		{`SELECT * FROM nosuch`, schema.ErrNoTable},
		{`INSERT INTO nosuch VALUES (1)`, schema.ErrNoTable},
		{`DELETE FROM nosuch`, schema.ErrNoTable},
		{`DROP TABLE nosuch`, schema.ErrNoTable},
		{`SELECT * FROM nodb.flights`, schema.ErrNoDatabase},
		{`CREATE TABLE nodb.t (a INTEGER)`, schema.ErrNoDatabase},
		{`CREATE TABLE flights (a INTEGER)`, schema.ErrTableExists},
		{`INSERT INTO seats VALUES ('abc', 'x')`, nil},
		{`UPDATE seats SET snu = 'abc' WHERE snu = 1`, nil},
		{`INSERT INTO seats VALUES (1)`, nil},
		{`SELECT nosuch FROM flights`, sqlengine.ErrUnknownColumn},
		{`SELECT flnu FROM flights, legs`, sqlengine.ErrAmbiguousColumn},
		{`SELECT (SELECT flnu FROM flights)`, sqlengine.ErrNotScalar},
	}

	sites, diskStore := openDiffSites(t)
	ref := sites[0]
	compare := func(q string, commit, needsViews, fails bool) {
		want, wantErr := ref.exec(t, q, commit)
		if (wantErr != nil) != fails {
			t.Errorf("%s: %q: err = %v, meant to fail: %v", ref.name, q, wantErr, fails)
		}
		for _, s := range sites[1:] {
			if needsViews && !s.views {
				continue
			}
			got, gotErr := s.exec(t, q, commit)
			sameOutcome(t, s.name, q, want, got, wantErr, gotErr)
		}
	}
	readAll := func() {
		for _, q := range queries {
			compare(q, false, false, false)
		}
		for _, q := range viewQueries {
			compare(q, false, true, false)
		}
	}

	readAll()
	for _, f := range failures {
		compare(f.q, false, false, true)
		for _, s := range sites {
			if _, err := s.exec(t, f.q, false); err == nil || (f.sentinel != nil && !errors.Is(err, f.sentinel)) {
				t.Errorf("%s: %q: err = %v, want %v", s.name, f.q, err, f.sentinel)
			}
		}
	}
	for _, q := range writes {
		compare(q, true, false, false)
	}
	readAll()
	for _, q := range keyedWrites {
		compare(q, true, false, false)
	}
	readAll()
	for _, seq := range sequences {
		want, wantErr := ref.execAll(t, seq.qs, seq.commit)
		if (wantErr != nil) != seq.fails {
			t.Errorf("%s: %q: err = %v, meant to fail: %v", ref.name, seq.qs, wantErr, seq.fails)
		}
		for _, s := range sites[1:] {
			got, gotErr := s.execAll(t, seq.qs, seq.commit)
			for i, q := range seq.qs {
				if want[i] == nil || got[i] == nil {
					// The statement that failed, or one after it.
					sameOutcome(t, s.name, q, nil, nil, wantErr, gotErr)
					break
				}
				sameOutcome(t, s.name, q, want[i], got[i], nil, nil)
			}
		}
	}
	readAll()

	loadsAgree(t, sites)

	if ps := diskStore.Pool().Stats(); ps.Evictions == 0 {
		t.Fatalf("disk site never evicted a page (%+v): the fixture no longer exceeds its pool", ps)
	}
}

// insertOf renders rows as the INSERT ... VALUES statement Tx.Load
// stands in for.
func insertOf(table string, rows [][]sqlval.Value) string {
	ins := &sqlparser.InsertStmt{Table: sqlparser.Name(table)}
	for _, row := range rows {
		var exprs []sqlparser.Expr
		for _, v := range row {
			exprs = append(exprs, &sqlparser.Literal{Val: v})
		}
		ins.Rows = append(ins.Rows, exprs)
	}
	return sqlparser.Deparse(ins)
}

// loadOutcome is what one attempt to put rows into ld did, read back
// inside the attempt's own transaction before it ends.
type loadOutcome struct {
	n    int
	err  error
	rows []string // bag of ld's contents; nil after an error
}

func (o loadOutcome) String() string { return fmt.Sprintf("n=%d err=%v rows=%v", o.n, o.err, o.rows) }

// putRows starts a transaction, puts rows into ld through Tx.Load or
// through the equivalent INSERT statement, reads ld back and ends the
// transaction.
func (s diffSite) putRows(t *testing.T, rows [][]sqlval.Value, viaLoad, commit bool) loadOutcome {
	t.Helper()
	tx := s.be.Begin()
	var out loadOutcome
	if viaLoad {
		out.n, out.err = tx.Load("continental", "ld", rows)
	} else {
		q := insertOf("ld", rows)
		stmt, err := sqlparser.ParseStatement(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		var res *sqlengine.Result
		if res, out.err = tx.Exec("continental", q, stmt); out.err == nil {
			out.n = res.RowsAffected
		}
	}
	if out.err != nil {
		out.n = 0 // how far a failed attempt got is not part of the contract
		tx.Rollback()
		return out
	}
	sel, _ := sqlparser.ParseStatement(`SELECT * FROM ld`)
	res, err := tx.Exec("continental", "", sel)
	if err != nil {
		t.Fatalf("%s: read back: %v", s.name, err)
	}
	out.rows = bag(res.Rows)
	if !commit {
		tx.Rollback()
	} else if err := tx.Commit(); err != nil {
		t.Fatalf("%s: commit: %v", s.name, err)
	}
	return out
}

// loadsAgree holds Tx.Load to the one insert semantics: on every
// backend, loading rows and executing INSERT ... VALUES of the same rows
// give the same count, the same error and the same table, a failed load
// leaves nothing behind once its transaction is rolled back, and the
// backends agree with one another wherever their storage enforces the
// same things (a csv file checks neither widths nor keys).
func loadsAgree(t *testing.T, sites []diffSite) {
	t.Helper()
	I, F, S, B, N := sqlval.Int, sqlval.Float, sqlval.Str, sqlval.Bool, sqlval.Null()
	cases := []struct {
		name     string
		rows     [][]sqlval.Value
		sentinel error // what the relstore sites must fail with; nil = success or a plain error
		fails    bool  // every site must fail
		csvLax   bool  // the csv site accepts what relstore refuses
	}{
		{name: "plain and NULLs", rows: [][]sqlval.Value{{I(1), S("ab"), F(1.5), B(true)}, {I(2), N, N, N}}},
		{name: "coercions", rows: [][]sqlval.Value{{S("3"), I(55), I(7), I(1)}, {F(4), F(2.5), S(" 8.25 "), B(false)}}},
		{name: "float edges", rows: [][]sqlval.Value{{I(5), S("e"), F(1e-5), N}, {I(6), S("E"), F(-2.5e-7), N}, {I(7), N, F(1.7976931348623157e308), N}, {I(8), N, F(5e-324), N}, {I(9), N, F(1e21), N}}},
		{name: "width violation", rows: [][]sqlval.Value{{I(10), S("fits"), N, N}, {I(11), S("too long"), N, N}}, sentinel: schema.ErrWidthExceeded, csvLax: true},
		{name: "arity mismatch", rows: [][]sqlval.Value{{I(12), S("a"), F(1), B(true)}, {I(13), S("b"), F(2)}}, fails: true},
		{name: "duplicate key", rows: [][]sqlval.Value{{I(14), S("a"), N, N}, {I(14), S("b"), N, N}}, sentinel: schema.ErrDuplicateKey, csvLax: true},
		{name: "uncoercible", rows: [][]sqlval.Value{{I(15), N, N, N}, {S("abc"), N, N, N}}, fails: true},
	}
	for _, s := range sites {
		if _, err := s.exec(t, `CREATE TABLE ld (id INTEGER PRIMARY KEY, name CHAR(5), score FLOAT, ok BOOLEAN)`, true); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range cases {
		var ref loadOutcome
		for i, s := range sites {
			viaLoad, viaInsert := s.putRows(t, c.rows, true, false), s.putRows(t, c.rows, false, false)
			if viaLoad.String() != viaInsert.String() {
				t.Errorf("%s: %s: Load gave %v, INSERT gave %v", s.name, c.name, viaLoad, viaInsert)
			}
			lax := c.csvLax && s.name == "csv"
			if failed := viaLoad.err != nil; failed != ((c.fails || c.sentinel != nil) && !lax) {
				t.Errorf("%s: %s: err = %v", s.name, c.name, viaLoad.err)
			}
			if c.sentinel != nil && !lax && !errors.Is(viaLoad.err, c.sentinel) {
				t.Errorf("%s: %s: err = %v, want %v", s.name, c.name, viaLoad.err, c.sentinel)
			}
			if res, err := s.exec(t, `SELECT COUNT(*) FROM ld`, false); err != nil || res.Rows[0][0].I != 0 {
				t.Errorf("%s: %s: %v rows left behind after rollback (err %v)", s.name, c.name, res.Rows, err)
			}
			if i == 0 {
				ref = viaLoad
			} else if !lax && viaLoad.String() != ref.String() {
				t.Errorf("%s: %s: Load gave %v, reference %v", s.name, c.name, viaLoad, ref)
			}
		}
	}
	// Committed loads read back the same everywhere, coerced values
	// included.
	var ref loadOutcome
	for i, s := range sites {
		var got loadOutcome
		for _, c := range cases[:3] {
			if got = s.putRows(t, c.rows, true, true); got.err != nil || got.n != len(c.rows) {
				t.Fatalf("%s: %s: loaded %d of %d rows: %v", s.name, c.name, got.n, len(c.rows), got.err)
			}
		}
		if i == 0 {
			ref = got
			if want := 9; len(ref.rows) != want {
				t.Fatalf("reference holds %d rows, want %d", len(ref.rows), want)
			}
		} else if !reflect.DeepEqual(got.rows, ref.rows) {
			t.Errorf("%s: loaded table differs\n got %v\nwant %v", s.name, got.rows, ref.rows)
		}
	}
}
