package relstore

import (
	"fmt"
	"testing"

	"msql/internal/schema"
	"msql/internal/sqlval"
)

func benchStore(b *testing.B, rows int) *Store {
	b.Helper()
	s := NewStore()
	if err := s.CreateDatabase("d"); err != nil {
		b.Fatal(err)
	}
	tx := s.Begin()
	if err := tx.CreateTable("d", "t", []schema.Column{
		{Name: "id", Type: sqlval.KindInt},
		{Name: "val", Type: sqlval.KindFloat},
		{Name: "label", Type: sqlval.KindString, Width: 32},
	}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		row := schema.Row{sqlval.Int(int64(i)), sqlval.Float(float64(i) / 3), sqlval.Str(fmt.Sprintf("label-%d", i))}
		if err := tx.Insert("d", "t", row); err != nil {
			b.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkInsertCommit(b *testing.B) {
	s := benchStore(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin()
		row := schema.Row{sqlval.Int(int64(i)), sqlval.Float(1.5), sqlval.Str("x")}
		if err := tx.Insert("d", "t", row); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScan1k(b *testing.B) {
	s := benchStore(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin()
		tbl, err := tx.TableForRead("d", "t")
		if err != nil {
			b.Fatal(err)
		}
		count := 0
		tbl.ForEach(func(idx int, row schema.Row) bool {
			count++
			return true
		})
		if count != 1000 {
			b.Fatalf("count = %d", count)
		}
		tx.Rollback()
	}
}

func BenchmarkUpdateRollback(b *testing.B) {
	s := benchStore(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin()
		if err := tx.Update("d", "t", 0, schema.Row{sqlval.Int(0), sqlval.Float(9), sqlval.Str("y")}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Rollback(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrepareCommitCycle(b *testing.B) {
	s := benchStore(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := s.Begin()
		if err := tx.Update("d", "t", 0, schema.Row{sqlval.Int(0), sqlval.Float(float64(i)), sqlval.Str("z")}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Prepare(); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
