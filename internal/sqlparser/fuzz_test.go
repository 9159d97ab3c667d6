package sqlparser

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// parsedStatements are the other statements the parser tests parse.
var parsedStatements = []string{
	"UPDATE t SET x = 0.00001",
	"UPDATE fitab SET sstat = 'TAKEN', clname = 'wenders' WHERE snu = (SELECT MIN(snu) FROM fitab WHERE sstat = 'FREE')",
	"SELECT DISTINCT f.source, COUNT(*) AS n, AVG(rate) r FROM flights f, f838 s WHERE f.rate > 100 AND s.seatstatus <> 'FREE' GROUP BY f.source HAVING COUNT(*) > 2 ORDER BY n DESC, f.source LIMIT 10",
	"SELECT *, f.* FROM flights f",
	"INSERT INTO cars (code, cartype, rate) VALUES (1, 'suv', 49.5), (2, 'compact', NULL)",
	"INSERT INTO t2 SELECT a, b FROM t1 WHERE a > 0",
	"DELETE FROM cars WHERE carst = 'RETIRED'",
	"DELETE FROM cars",
	"CREATE TABLE flights (flnu INTEGER, source CHAR(20), rate FLOAT, ok BOOLEAN)",
	"CREATE DATABASE avis",
	"DROP DATABASE avis",
	"DROP TABLE IF EXISTS flights",
	"DROP VIEW v",
	"BEGIN",
	"COMMIT WORK",
	"ROLLBACK",
	"CREATE TABLE t (a INTEGER PRIMARY KEY, b CHAR(10))",
	"CREATE TABLE t (a INTEGER, b CHAR(5), c FLOAT, PRIMARY KEY (c, a))",
	"CREATE TABLE t (x NUMERIC(10, 2))",
	"SELECT a FROM t WHERE a IN (1, 2, 3) AND b NOT IN (SELECT b FROM u) AND c BETWEEN 1 AND 10 AND d IS NOT NULL AND e LIKE 'H%' AND NOT (f = 1 OR g = 2)",
	"SELECT a + b * c - d FROM t",
	"SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3",
}

// FuzzDeparseFixpoint: whatever parses deparses to text that parses
// again, and deparsing that gives the same bytes. Recovery executes
// deparsed SQL — the coordinator re-runs the COMP text journaled at
// begin, a restarted participant re-executes its redo statements — so a
// statement that deparses to something else, or to nothing parseable,
// would be replayed wrong or not at all.
func FuzzDeparseFixpoint(f *testing.F) {
	for _, src := range append(roundTripSources, parsedStatements...) {
		f.Add(src)
	}
	for _, v := range fixpointFloats {
		f.Add(Deparse(floatUpdate(v)))
	}
	f.Fuzz(func(t *testing.T, src string) {
		s1, err := ParseStatement(src)
		if err != nil {
			return
		}
		out1 := Deparse(s1)
		s2, err := ParseStatement(out1)
		if err != nil {
			t.Fatalf("reparse of %q -> %q: %v", src, out1, err)
		}
		if out2 := Deparse(s2); out2 != out1 {
			t.Fatalf("deparse not stable:\n  src  %q\n  out1 %q\n  out2 %q", src, out1, out2)
		}
	})
}

// walkerSources nest SELECT blocks every way the grammar allows: UNION
// branches at the top, under INSERT and CREATE VIEW, inside scalar and
// IN subqueries, and subqueries inside UNION branches.
var walkerSources = []string{
	"SELECT c.flnu FROM continental.flights c UNION SELECT c2.seatnu FROM continental.f838 c2",
	"SELECT a FROM t UNION ALL SELECT b FROM u UNION SELECT c FROM v WHERE c IN (SELECT d FROM w)",
	"SELECT fnu FROM flights WHERE fnu IN (SELECT fnu FROM x UNION SELECT fnu FROM united.flight)",
	"SELECT a FROM t WHERE b = (SELECT MAX(c) FROM u UNION SELECT ~d FROM v, w)",
	"INSERT INTO t (a, b) SELECT x, y FROM u UNION SELECT p, q FROM v WHERE p = (SELECT MIN(r) FROM s)",
	"CREATE VIEW v AS SELECT a FROM t UNION SELECT b FROM u",
	"UPDATE t SET a = (SELECT b FROM u UNION SELECT c FROM v) WHERE d NOT IN (SELECT e FROM w)",
	"DELETE FROM t WHERE a IN (SELECT b FROM u WHERE c IN (SELECT d FROM v UNION SELECT e FROM x))",
}

// deparseCorpus returns the checked-in FuzzDeparseFixpoint inputs.
func deparseCorpus(f *testing.F) []string {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDeparseFixpoint", "*"))
	if err != nil {
		f.Fatal(err)
	}
	var out []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if lit, ok := strings.CutPrefix(line, "string("); ok {
				src, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
				if err != nil {
					f.Fatalf("%s: %v", p, err)
				}
				out = append(out, src)
			}
		}
	}
	return out
}

// FuzzWalkersAgree: the traversal primitives see what the independent
// Rewriter sees. For every statement that parses (EXPLAIN aside: the
// Rewriter passes it through), the Rewriter's Table hook sees, as a
// multiset, the statement's Target plus every FROM name of every block
// Selects yields, and its Col hook sees the column references WalkExprs
// yields plus an INSERT's column list. A block or an expression the
// primitives skip would be skipped by every pass built on them.
func FuzzWalkersAgree(f *testing.F) {
	for _, src := range append(append(append(roundTripSources, parsedStatements...), walkerSources...), deparseCorpus(f)...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := ParseStatement(src)
		if err != nil {
			return
		}
		if _, ok := s.(*ExplainStmt); ok {
			return
		}
		var rwTables, rwCols []string
		RewriteStatement(s, Rewriter{
			Table: func(n ObjectName) ObjectName { rwTables = append(rwTables, n.String()); return n },
			Col:   func(c ColRef) Expr { rwCols = append(rwCols, colSpelling(c)); return c },
		})
		var tables, cols []string
		if target, ok := Target(s); ok {
			tables = append(tables, target.String())
		}
		Selects(s, func(sel *SelectStmt) {
			for _, f := range sel.From {
				tables = append(tables, f.Name.String())
			}
		})
		WalkExprs(s, func(e Expr) {
			if c, ok := e.(ColRef); ok {
				cols = append(cols, colSpelling(c))
			}
		})
		if ins, ok := s.(*InsertStmt); ok {
			cols = append(cols, ins.Columns...)
		}
		for _, d := range []struct {
			what          string
			walked, rwSaw []string
		}{{"tables", tables, rwTables}, {"columns", cols, rwCols}} {
			sort.Strings(d.walked)
			sort.Strings(d.rwSaw)
			if fmt.Sprint(d.walked) != fmt.Sprint(d.rwSaw) {
				t.Fatalf("%q: the walkers see %s %v, the Rewriter %v", src, d.what, d.walked, d.rwSaw)
			}
		}
	})
}

func colSpelling(c ColRef) string {
	if c.Optional {
		return "~" + c.Name()
	}
	return c.Name()
}
