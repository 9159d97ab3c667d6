package sqlengine_test

import (
	"fmt"
	"testing"

	"msql/internal/relbackend"
	"msql/internal/relstore"
	"msql/internal/sqlengine"
)

// The statements the micro-benchmarks time; TestAllocationCeilings pins
// their allocations.
const (
	filterQuery   = "SELECT id FROM t WHERE val > 250 AND grp = 'g3'"
	hashJoinQuery = "SELECT COUNT(t.id) FROM t, u WHERE t.id = u.id"
	nonKeyUpdate  = "UPDATE t SET val = val + 1 WHERE grp = 'g1'"
)

// benchDB builds table d.t of rows rows: a key, one of seven groups and
// a float.
func benchDB(b testing.TB, rows int) *relstore.Store {
	b.Helper()
	s := relstore.NewStore()
	if err := s.CreateDatabase("d"); err != nil {
		b.Fatal(err)
	}
	tx := s.Begin()
	if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "d", "CREATE TABLE t (id INTEGER PRIMARY KEY, grp CHAR(4), val FLOAT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i += 50 {
		stmt := "INSERT INTO t VALUES "
		for j := 0; j < 50 && i+j < rows; j++ {
			if j > 0 {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'g%d', %d.5)", i+j, (i+j)%7, (i+j)%500)
		}
		if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "d", stmt); err != nil {
			b.Fatal(err)
		}
	}
	tx.Commit()
	return s
}

func BenchmarkSelectFilter(b *testing.B) {
	s := benchDB(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin()
		res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "d", filterQuery)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
		tx.Rollback()
	}
}

func BenchmarkSelectGroupBy(b *testing.B) {
	s := benchDB(b, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin()
		res, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "d", "SELECT grp, COUNT(id), AVG(val) FROM t GROUP BY grp")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 7 {
			b.Fatalf("groups = %d", len(res.Rows))
		}
		tx.Rollback()
	}
}

// addJoinTable adds table d.u of 2000 rows whose ids are t's 0..1999.
func addJoinTable(b testing.TB, s *relstore.Store) {
	b.Helper()
	tx := s.Begin()
	if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "d", "CREATE TABLE u (id INTEGER, tag CHAR(4))"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i += 50 {
		stmt := "INSERT INTO u VALUES "
		for j := 0; j < 50; j++ {
			if j > 0 {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'x')", i+j)
		}
		if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "d", stmt); err != nil {
			b.Fatal(err)
		}
	}
	tx.Commit()
}

func BenchmarkHashJoin(b *testing.B) {
	s := benchDB(b, 2000)
	addJoinTable(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rtx := s.Begin()
		res, err := sqlengine.ExecuteSQL(relbackend.Storage(rtx), "d", hashJoinQuery)
		if err != nil {
			b.Fatal(err)
		}
		if n, _ := res.Rows[0][0].AsInt(); n != 2000 {
			b.Fatalf("count = %d", n)
		}
		rtx.Rollback()
	}
}

// BenchmarkUpdateWhere shows both access paths of a write: a WHERE that
// pins the primary key probes the index, any other predicate scans.
func BenchmarkUpdateWhere(b *testing.B) {
	s := benchDB(b, 1000)
	for _, bc := range []struct{ name, q string }{
		{"keyed-point", "UPDATE t SET val = val + 1 WHERE id = 617"},
		{"non-key-predicate", nonKeyUpdate},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tx := s.Begin()
				if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "d", bc.q); err != nil {
					b.Fatal(err)
				}
				tx.Rollback()
			}
		})
	}
}
