package relstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"msql/internal/schema"
	"msql/internal/sqlval"
)

func keyedStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	err = tx.CreateTable("db", "kv", []schema.Column{
		{Name: "k", Type: sqlval.KindInt, Key: true},
		{Name: "v", Type: sqlval.KindString},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPrimaryKeyUniqueAndNotNull(t *testing.T) {
	s := keyedStore(t, "")
	tx := s.Begin()
	if err := tx.Insert("db", "kv", schema.Row{sqlval.Int(1), sqlval.Str("one")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("db", "kv", schema.Row{sqlval.Int(1), sqlval.Str("dup")}); !errors.Is(err, schema.ErrDuplicateKey) {
		t.Fatalf("duplicate insert err = %v", err)
	}
	if err := tx.Insert("db", "kv", schema.Row{sqlval.Null(), sqlval.Str("nil")}); !errors.Is(err, ErrNullKey) {
		t.Fatalf("null key err = %v", err)
	}
	if err := tx.Insert("db", "kv", schema.Row{sqlval.Int(2), sqlval.Str("two")}); err != nil {
		t.Fatal(err)
	}
	// Updating a row onto an existing key is rejected; onto a fresh key is
	// not; updating in place (same key) is always fine.
	if err := tx.Update("db", "kv", 1, schema.Row{sqlval.Int(1), sqlval.Str("clash")}); !errors.Is(err, schema.ErrDuplicateKey) {
		t.Fatalf("update onto taken key err = %v", err)
	}
	if err := tx.Update("db", "kv", 1, schema.Row{sqlval.Int(3), sqlval.Str("three")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("db", "kv", 1, schema.Row{sqlval.Int(3), sqlval.Str("still three")}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	// The index tracked all of it.
	d, _ := s.Database("db")
	tbl, _ := d.Table("kv")
	if idx, ok := tbl.LookupKey([]sqlval.Value{sqlval.Int(3)}); !ok || tbl.RowAt(idx, nil)[1].S != "still three" {
		t.Fatalf("LookupKey(3) = %d,%v", idx, ok)
	}
	if _, ok := tbl.LookupKey([]sqlval.Value{sqlval.Int(99)}); ok {
		t.Fatal("LookupKey found a missing key")
	}
}

func TestIndexSurvivesRollbackAndCompaction(t *testing.T) {
	s := keyedStore(t, "")
	tx := s.Begin()
	for i := 0; i < 10; i++ {
		if err := tx.Insert("db", "kv", schema.Row{sqlval.Int(int64(i)), sqlval.Str(fmt.Sprintf("v%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()

	// Rollback of delete+update restores index entries.
	tx = s.Begin()
	if err := tx.Delete("db", "kv", 3); err != nil {
		t.Fatal(err)
	}
	if err := tx.Update("db", "kv", 4, schema.Row{sqlval.Int(40), sqlval.Str("moved")}); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	d, _ := s.Database("db")
	tbl, _ := d.Table("kv")
	for i := 0; i < 10; i++ {
		idx, ok := tbl.LookupKey([]sqlval.Value{sqlval.Int(int64(i))})
		if !ok {
			t.Fatalf("key %d lost after rollback", i)
		}
		if got := tbl.RowAt(idx, nil); got[0].I != int64(i) {
			t.Fatalf("key %d points at row %v", i, got)
		}
	}
	if _, ok := tbl.LookupKey([]sqlval.Value{sqlval.Int(40)}); ok {
		t.Fatal("rolled-back key 40 still indexed")
	}

	// Committed deletes compact the table; the index must follow the
	// renumbered stable indexes.
	tx = s.Begin()
	for _, idx := range []int{0, 2, 4} {
		if err := tx.Delete("db", "kv", idx); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	if tbl.dead != 0 {
		t.Fatalf("dead = %d after commit", tbl.dead)
	}
	for _, k := range []int64{1, 3, 5, 6, 7, 8, 9} {
		idx, ok := tbl.LookupKey([]sqlval.Value{sqlval.Int(k)})
		if !ok {
			t.Fatalf("key %d lost after compaction", k)
		}
		if got := tbl.RowAt(idx, nil); got == nil || got[0].I != k {
			t.Fatalf("key %d remapped to wrong row %v", k, got)
		}
	}
	for _, k := range []int64{0, 2, 4} {
		if _, ok := tbl.LookupKey([]sqlval.Value{sqlval.Int(k)}); ok {
			t.Fatalf("deleted key %d still indexed", k)
		}
	}
}

func TestPersistCheckpointReopen(t *testing.T) {
	dir := t.TempDir()
	s := keyedStore(t, dir)
	tx := s.Begin()
	for i := 0; i < 500; i++ {
		if err := tx.Insert("db", "kv", schema.Row{sqlval.Int(int64(i)), sqlval.Str(fmt.Sprintf("value-%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	tx.Commit()
	tx = s.Begin()
	if err := tx.CreateView("db", "vw", "SELECT k FROM kv"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	d, err := s2.Database("db")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 500 {
		t.Fatalf("rows after reopen = %d", tbl.RowCount())
	}
	// Keys, schema and the rebuilt index survive.
	if !tbl.Columns[0].Key || tbl.Columns[1].Width != 0 {
		t.Fatalf("schema after reopen = %+v", tbl.Columns)
	}
	idx, ok := tbl.LookupKey([]sqlval.Value{sqlval.Int(250)})
	if !ok {
		t.Fatal("index not rebuilt on reopen")
	}
	if row := tbl.RowAt(idx, nil); row[1].S != "value-250" {
		t.Fatalf("row via rebuilt index = %v", row)
	}
	if _, err := d.View("vw"); err != nil {
		t.Fatalf("view lost: %v", err)
	}
	// And the store keeps working.
	tx = s2.Begin()
	if err := tx.Insert("db", "kv", schema.Row{sqlval.Int(1000), sqlval.Str("post-reopen")}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	s2.Close()
}

// TestCheckpointRewritesCatalogOnlyOnDDL: the catalog is replaced (a new
// inode under the same name, no temp file left) when a checkpoint
// follows a schema change, and left alone when it follows row changes
// only — also on the first checkpoint of a reopened store.
func TestCheckpointRewritesCatalogOnlyOnDDL(t *testing.T) {
	dir := t.TempDir()
	catPath := filepath.Join(dir, catalogFile)
	stat := func() os.FileInfo {
		t.Helper()
		fi, err := os.Stat(catPath)
		if err != nil {
			t.Fatal(err)
		}
		return fi
	}
	insert := func(s *Store, k int64) {
		t.Helper()
		tx := s.Begin()
		if err := tx.Insert("db", "kv", schema.Row{sqlval.Int(k), sqlval.Str("v")}); err != nil {
			t.Fatal(err)
		}
		tx.Commit()
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}

	s := keyedStore(t, dir)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	created := stat()
	insert(s, 1)
	if !os.SameFile(created, stat()) {
		t.Fatal("a checkpoint after row changes only rewrote catalog.json")
	}
	tx := s.Begin()
	if err := tx.CreateView("db", "vw", "SELECT k FROM kv"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	withView := stat()
	if os.SameFile(created, withView) {
		t.Fatal("a checkpoint after CREATE VIEW did not replace catalog.json")
	}
	if _, err := os.Stat(catPath + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp catalog left behind: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	insert(s2, 2)
	if !os.SameFile(withView, stat()) {
		t.Fatal("the first checkpoint of a reopened store rewrote an unchanged catalog.json")
	}
	d, _ := s2.Database("db")
	if _, err := d.View("vw"); err != nil {
		t.Fatalf("view lost: %v", err)
	}
}

// TestFailedCatalogWriteIsRetried: a checkpoint whose catalog write
// fails leaves the change pending, so the next checkpoint writes it
// although no DDL came in between.
func TestFailedCatalogWriteIsRetried(t *testing.T) {
	dir := t.TempDir()
	s := keyedStore(t, dir)
	// A directory where the temp file goes makes the write fail.
	tmp := filepath.Join(dir, catalogFile+".tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with its temp path blocked")
	}
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	d, err := s2.Database("db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Table("kv"); err != nil {
		t.Fatalf("table lost: %v", err)
	}
}

func TestUncheckpointedWorkIsLost(t *testing.T) {
	// The durability unit is the checkpoint: rows committed after the last
	// checkpoint may or may not reach the heap file (steal policy), and the
	// catalog only records checkpointed schemas. Simulate a crash by
	// reopening without Close.
	dir := t.TempDir()
	s := keyedStore(t, dir)
	tx := s.Begin()
	tx.Insert("db", "kv", schema.Row{sqlval.Int(1), sqlval.Str("durable")})
	tx.Commit()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = s.Begin()
	tx.Insert("db", "kv", schema.Row{sqlval.Int(2), sqlval.Str("volatile")})
	tx.Commit()
	// No checkpoint, no Close: crash.

	s2, err := Open(Options{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	d, _ := s2.Database("db")
	tbl, err := d.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	if idx, ok := tbl.LookupKey([]sqlval.Value{sqlval.Int(1)}); !ok || tbl.RowAt(idx, nil) == nil {
		t.Fatal("checkpointed row lost")
	}
}

func TestDropTableRemovesHeapFile(t *testing.T) {
	dir := t.TempDir()
	s := keyedStore(t, dir)
	tx := s.Begin()
	tx.Insert("db", "kv", schema.Row{sqlval.Int(1), sqlval.Str("x")})
	tx.Commit()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tx = s.Begin()
	if err := tx.DropTable("db", "kv"); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(Options{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := s2.Database("db")
	if _, err := d.Table("kv"); !errors.Is(err, schema.ErrNoTable) {
		t.Fatalf("dropped table resurfaced: %v", err)
	}
}

// TestConcurrentCheckpoints is the regression test for the checkpoint
// race the benchmark found: every session checkpoints after its own
// commit, and two checkpoints used to write and rename the same
// catalog.json.tmp, and one session's flush used to seal and write pages
// another session was still inserting into (the race detector's half of
// this test). Sessions here write distinct tables, so nothing but the
// checkpoint itself is contended.
func TestConcurrentCheckpoints(t *testing.T) {
	// Several rows per commit: from the second on, an insert writes into
	// a page the first left dirty, which is the page another session's
	// checkpoint is flushing.
	const sessions, commits, perCommit = 8, 20, 4
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	for g := 0; g < sessions; g++ {
		err := tx.CreateTable("db", fmt.Sprintf("t%d", g), []schema.Column{{Name: "k", Type: sqlval.KindInt, Key: true}})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < sessions; g++ {
		wg.Add(1)
		go func(table string) {
			defer wg.Done()
			for k := 0; k < commits; k++ {
				tx := s.Begin()
				for r := 0; r < perCommit; r++ {
					if err := tx.Insert("db", table, schema.Row{sqlval.Int(int64(k*perCommit + r))}); err != nil {
						t.Errorf("%s insert %d/%d: %v", table, k, r, err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					t.Errorf("%s commit %d: %v", table, k, err)
					return
				}
				if err := s.Checkpoint(); err != nil {
					t.Errorf("%s checkpoint %d: %v", table, k, err)
					return
				}
			}
		}(fmt.Sprintf("t%d", g))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// No Close: the last checkpoints alone must have left a catalog that
	// parses and heaps holding every committed row.
	s2, err := Open(Options{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	d, err := s2.Database("db")
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < sessions; g++ {
		tbl, err := d.Table(fmt.Sprintf("t%d", g))
		if err != nil {
			t.Fatal(err)
		}
		if tbl.RowCount() != commits*perCommit {
			t.Errorf("t%d: %d rows after reopen, want %d", g, tbl.RowCount(), commits*perCommit)
		}
	}
}
