package sqlparser

import "testing"

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
