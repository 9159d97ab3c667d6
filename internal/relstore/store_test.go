package relstore

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"msql/internal/schema"
	"msql/internal/sqlval"
)

func carRentalStore(t testing.TB) *Store {
	s := NewStore()
	if err := s.CreateDatabase("avis"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	err := tx.CreateTable("avis", "cars", []schema.Column{
		{Name: "code", Type: sqlval.KindInt},
		{Name: "cartype", Type: sqlval.KindString, Width: 20},
		{Name: "rate", Type: sqlval.KindFloat},
		{Name: "carst", Type: sqlval.KindString, Width: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []schema.Row{
		{sqlval.Int(1), sqlval.Str("suv"), sqlval.Float(49.5), sqlval.Str("available")},
		{sqlval.Int(2), sqlval.Str("compact"), sqlval.Float(29.5), sqlval.Str("rented")},
		{sqlval.Int(3), sqlval.Str("luxury"), sqlval.Float(99.0), sqlval.Str("available")},
	}
	for _, r := range rows {
		if err := tx.Insert("avis", "cars", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateAndDropDatabase(t *testing.T) {
	s := NewStore()
	if err := s.CreateDatabase("avis"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateDatabase("avis"); !errors.Is(err, schema.ErrDBExists) {
		t.Fatalf("dup create err = %v", err)
	}
	if _, err := s.Database("none"); !errors.Is(err, schema.ErrNoDatabase) {
		t.Fatalf("missing db err = %v", err)
	}
	if err := s.DropDatabase("avis"); err != nil {
		t.Fatal(err)
	}
	if err := s.DropDatabase("avis"); !errors.Is(err, schema.ErrNoDatabase) {
		t.Fatalf("double drop err = %v", err)
	}
}

func TestInsertScanCommit(t *testing.T) {
	s := carRentalStore(t)
	tx := s.Begin()
	tbl, err := tx.TableForRead("avis", "cars")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 3 {
		t.Fatalf("rows = %d", tbl.RowCount())
	}
	var count int
	tbl.ForEach(func(idx int, row schema.Row) bool {
		count++
		return true
	})
	if count != 3 {
		t.Fatalf("ForEach visited %d", count)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRollbackUndoesInsertUpdateDelete(t *testing.T) {
	s := carRentalStore(t)
	tx := s.Begin()
	if err := tx.Insert("avis", "cars", schema.Row{sqlval.Int(4), sqlval.Str("van"), sqlval.Float(59), sqlval.Str("available")}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := tx.TableForWrite("avis", "cars")
	if err := tx.Update("avis", "cars", 0, schema.Row{sqlval.Int(1), sqlval.Str("suv"), sqlval.Float(999), sqlval.Str("available")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("avis", "cars", 1); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 3 { // 3 + 1 insert - 1 delete
		t.Fatalf("mid-tx rows = %d", tbl.RowCount())
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	check := s.Begin()
	tbl, err := check.TableForRead("avis", "cars")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 3 {
		t.Fatalf("post-rollback rows = %d", tbl.RowCount())
	}
	f, _ := tbl.RowAt(0, nil)[2].AsFloat()
	if f != 49.5 {
		t.Fatalf("rate after rollback = %v", tbl.RowAt(0, nil)[2])
	}
	if tbl.RowAt(1, nil) == nil {
		t.Fatal("deleted row not restored")
	}
	check.Rollback()
}

// TestBulkInsertRunsUndoAsOne: consecutive inserts into one table share
// an undo record (a bulk load would otherwise log one per row); runs are
// broken by any other write and by a switch of table, and rollback takes
// every row of every run back out, leaving what was interleaved with
// them undone too.
func TestBulkInsertRunsUndoAsOne(t *testing.T) {
	s := carRentalStore(t)
	setup := s.Begin()
	if err := setup.CreateTable("avis", "vans", []schema.Column{{Name: "code", Type: sqlval.KindInt, Key: true}}); err != nil {
		t.Fatal(err)
	}
	if err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	tx := s.Begin()
	car := func(code int64) schema.Row {
		return schema.Row{sqlval.Int(code), sqlval.Str("bulk"), sqlval.Float(1), sqlval.Str("new")}
	}
	for code := int64(10); code < 60; code++ {
		if err := tx.Insert("avis", "cars", car(code)); err != nil {
			t.Fatal(err)
		}
	}
	if len(tx.undo) != 1 || tx.undo[0].n != 50 {
		t.Fatalf("undo after 50 consecutive inserts = %d records (first covers %d)", len(tx.undo), tx.undo[0].n)
	}
	if err := tx.Delete("avis", "cars", 0); err != nil { // breaks the run
		t.Fatal(err)
	}
	for code := int64(60); code < 63; code++ {
		if err := tx.Insert("avis", "cars", car(code)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert("avis", "vans", schema.Row{sqlval.Int(code)}); err != nil { // alternating tables
			t.Fatal(err)
		}
	}
	if want := 1 + 1 + 6; len(tx.undo) != want {
		t.Fatalf("undo holds %d records, want %d", len(tx.undo), want)
	}
	// A duplicate key fails without extending the run it follows.
	if err := tx.Insert("avis", "vans", schema.Row{sqlval.Int(62)}); !errors.Is(err, schema.ErrDuplicateKey) {
		t.Fatalf("duplicate key err = %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	check := s.Begin()
	defer check.Rollback()
	cars, err := check.TableForRead("avis", "cars")
	if err != nil {
		t.Fatal(err)
	}
	if cars.RowCount() != 3 || cars.RowAt(0, nil) == nil {
		t.Fatalf("cars after rollback: %d rows, first %v", cars.RowCount(), cars.RowAt(0, nil))
	}
	vans, err := check.TableForRead("avis", "vans")
	if err != nil {
		t.Fatal(err)
	}
	if vans.RowCount() != 0 {
		t.Fatalf("vans after rollback: %d rows", vans.RowCount())
	}
	if _, ok := vans.LookupKey([]sqlval.Value{sqlval.Int(61)}); ok {
		t.Fatal("rolled-back key still in the index")
	}
}

// TestWriteAfterDropInSameTx: a run of writes resolves and locks its
// table once, but a table the transaction itself dropped is gone for its
// next write, and one it re-created is the new one.
func TestWriteAfterDropInSameTx(t *testing.T) {
	s := carRentalStore(t)
	tx := s.Begin()
	row := schema.Row{sqlval.Int(4), sqlval.Str("van"), sqlval.Int(59), sqlval.Str("new")}
	if err := tx.Insert("avis", "cars", row); err != nil {
		t.Fatal(err)
	}
	if row[2] != sqlval.Int(59) {
		t.Fatalf("insert modified the caller's row: %v", row)
	}
	if err := tx.DropTable("avis", "cars"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("avis", "cars", row); !errors.Is(err, schema.ErrNoTable) {
		t.Fatalf("insert into a dropped table: err = %v", err)
	}
	if err := tx.CreateTable("avis", "cars", []schema.Column{{Name: "code", Type: sqlval.KindInt}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("avis", "cars", schema.Row{sqlval.Int(7)}); err != nil {
		t.Fatalf("insert into the re-created table: %v", err)
	}
	if err := tx.DropDatabase("avis"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert("avis", "cars", schema.Row{sqlval.Int(8)}); !errors.Is(err, schema.ErrNoDatabase) {
		t.Fatalf("insert into a dropped database: err = %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	check := s.Begin()
	defer check.Rollback()
	cars, err := check.TableForRead("avis", "cars")
	if err != nil || cars.RowCount() != 3 || len(cars.Columns) != 4 {
		t.Fatalf("cars after rollback: %v, %v", cars, err)
	}
}

func TestPreparedStateVisible(t *testing.T) {
	s := carRentalStore(t)
	tx := s.Begin()
	if err := tx.Delete("avis", "cars", 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != TxPrepared {
		t.Fatalf("state = %s", tx.State())
	}
	// Work is forbidden in the prepared state.
	if err := tx.Insert("avis", "cars", schema.Row{sqlval.Int(9), sqlval.Str("x"), sqlval.Null(), sqlval.Str("s")}); !errors.Is(err, ErrTxDone) {
		t.Fatalf("insert in prepared state err = %v", err)
	}
	// Commit from prepared works.
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if tx.State() != TxCommitted {
		t.Fatalf("state = %s", tx.State())
	}
}

func TestPreparedThenRollback(t *testing.T) {
	s := carRentalStore(t)
	tx := s.Begin()
	if err := tx.Delete("avis", "cars", 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	check := s.Begin()
	tbl, _ := check.TableForRead("avis", "cars")
	if tbl.RowCount() != 3 {
		t.Fatalf("rows = %d", tbl.RowCount())
	}
	check.Rollback()
}

func TestDoubleCommitFails(t *testing.T) {
	s := carRentalStore(t)
	tx := s.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit err = %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("rollback after commit err = %v", err)
	}
}

func TestDDLRollback(t *testing.T) {
	s := carRentalStore(t)
	tx := s.Begin()
	if err := tx.CreateTable("avis", "tmp", []schema.Column{{Name: "a", Type: sqlval.KindInt}}); err != nil {
		t.Fatal(err)
	}
	if err := tx.DropTable("avis", "cars"); err != nil {
		t.Fatal(err)
	}
	if err := tx.CreateDatabase("hertz"); err != nil {
		t.Fatal(err)
	}
	if err := tx.CreateView("avis", "v", "SELECT code FROM cars"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	d, err := s.Database("avis")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Table("tmp"); !errors.Is(err, schema.ErrNoTable) {
		t.Fatal("tmp table survived rollback")
	}
	if _, err := d.Table("cars"); err != nil {
		t.Fatal("cars not restored by rollback")
	}
	if _, err := s.Database("hertz"); !errors.Is(err, schema.ErrNoDatabase) {
		t.Fatal("hertz survived rollback")
	}
	if _, err := d.View("v"); !errors.Is(err, schema.ErrNoView) {
		t.Fatal("view survived rollback")
	}
}

func TestDropDatabaseRollbackRestoresData(t *testing.T) {
	s := carRentalStore(t)
	tx := s.Begin()
	if err := tx.DropDatabase("avis"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Database("avis"); err == nil {
		t.Fatal("avis should be gone mid-tx")
	}
	tx.Rollback()
	d, err := s.Database("avis")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.Table("cars")
	if err != nil || tbl.RowCount() != 3 {
		t.Fatalf("restore failed: %v, rows=%d", err, tbl.RowCount())
	}
}

func TestValidation(t *testing.T) {
	s := carRentalStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	// Wrong arity.
	if err := tx.Insert("avis", "cars", schema.Row{sqlval.Int(1)}); err == nil {
		t.Fatal("arity error expected")
	}
	// Wrong kind.
	if err := tx.Insert("avis", "cars", schema.Row{sqlval.Str("x"), sqlval.Str("a"), sqlval.Null(), sqlval.Str("s")}); err == nil {
		t.Fatal("kind error expected")
	}
	// Width exceeded.
	err := tx.Insert("avis", "cars", schema.Row{sqlval.Int(5), sqlval.Str("this type name is far too long for the column"), sqlval.Null(), sqlval.Str("ok")})
	if !errors.Is(err, schema.ErrWidthExceeded) {
		t.Fatalf("width err = %v", err)
	}
	// NULL always fits; int widens into float column.
	if err := tx.Insert("avis", "cars", schema.Row{sqlval.Int(5), sqlval.Null(), sqlval.Int(42), sqlval.Str("ok")}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := tx.TableForRead("avis", "cars")
	var last schema.Row
	tbl.ForEach(func(idx int, row schema.Row) bool { last = row.Clone(); return true })
	if last[2].K != sqlval.KindFloat {
		t.Fatalf("int not widened to float: %v", last[2])
	}
}

func TestLockConflictTimeout(t *testing.T) {
	s := carRentalStore(t)
	writer := s.Begin()
	if _, err := writer.TableForWrite("avis", "cars"); err != nil {
		t.Fatal(err)
	}
	reader := s.Begin()
	reader.LockTimeout = 50 * time.Millisecond
	if _, err := reader.TableForRead("avis", "cars"); !errors.Is(err, schema.ErrLockTimeout) {
		t.Fatalf("expected lock timeout, got %v", err)
	}
	writer.Commit()
	// After release the reader can proceed.
	reader2 := s.Begin()
	if _, err := reader2.TableForRead("avis", "cars"); err != nil {
		t.Fatal(err)
	}
	reader2.Rollback()
	reader.Rollback()
}

func TestSharedLocksCoexist(t *testing.T) {
	s := carRentalStore(t)
	r1, r2 := s.Begin(), s.Begin()
	if _, err := r1.TableForRead("avis", "cars"); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.TableForRead("avis", "cars"); err != nil {
		t.Fatal(err)
	}
	r1.Commit()
	r2.Commit()
}

func TestLockUpgrade(t *testing.T) {
	s := carRentalStore(t)
	tx := s.Begin()
	if _, err := tx.TableForRead("avis", "cars"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.TableForWrite("avis", "cars"); err != nil {
		t.Fatalf("self-upgrade failed: %v", err)
	}
	tx.Commit()
}

func TestWriterBlocksUntilRelease(t *testing.T) {
	s := carRentalStore(t)
	r := s.Begin()
	if _, err := r.TableForRead("avis", "cars"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		w := s.Begin()
		_, err := w.TableForWrite("avis", "cars")
		if err == nil {
			w.Commit()
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	r.Commit()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("writer failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("writer never unblocked")
	}
}

func TestConcurrentInsertersSerialize(t *testing.T) {
	s := carRentalStore(t)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := s.Begin()
			tx.LockTimeout = 5 * time.Second
			if err := tx.Insert("avis", "cars", schema.Row{sqlval.Int(int64(100 + i)), sqlval.Str("x"), sqlval.Null(), sqlval.Str("new")}); err != nil {
				t.Error(err)
				tx.Rollback()
				return
			}
			tx.Commit()
		}(i)
	}
	wg.Wait()
	tx := s.Begin()
	tbl, _ := tx.TableForRead("avis", "cars")
	if tbl.RowCount() != 3+n {
		t.Fatalf("rows = %d, want %d", tbl.RowCount(), 3+n)
	}
	tx.Rollback()
}

func TestCloneIsDeep(t *testing.T) {
	s := carRentalStore(t)
	c := s.Clone()
	tx := s.Begin()
	if err := tx.Delete("avis", "cars", 0); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	d, _ := c.Database("avis")
	tbl, _ := d.Table("cars")
	if tbl.RowCount() != 3 {
		t.Fatalf("clone affected by original: rows = %d", tbl.RowCount())
	}
}

func TestTombstoneCompaction(t *testing.T) {
	s := carRentalStore(t)
	tx := s.Begin()
	if err := tx.Delete("avis", "cars", 1); err != nil {
		t.Fatal(err)
	}
	tx.Commit()
	d, _ := s.Database("avis")
	tbl, _ := d.Table("cars")
	if tbl.dead != 0 {
		t.Fatalf("tombstones not compacted: dead = %d", tbl.dead)
	}
	if tbl.RowCount() != 2 {
		t.Fatalf("rows = %d", tbl.RowCount())
	}
}

func TestNames(t *testing.T) {
	s := carRentalStore(t)
	s.CreateDatabase("national")
	got := s.DatabaseNames()
	if len(got) != 2 || got[0] != "avis" || got[1] != "national" {
		t.Fatalf("db names = %v", got)
	}
	d, _ := s.Database("avis")
	if names := d.TableNames(); len(names) != 1 || names[0] != "cars" {
		t.Fatalf("table names = %v", names)
	}
	tx := s.Begin()
	tx.CreateView("avis", "v", "SELECT code FROM cars")
	tx.Commit()
	if names := d.ViewNames(); len(names) != 1 || names[0] != "v" {
		t.Fatalf("view names = %v", names)
	}
}

func TestDeadlockResolvedByTimeout(t *testing.T) {
	// Classic two-table deadlock: tx1 holds cars and wants trucks, tx2
	// holds trucks and wants cars. The lock-wait timeout breaks it.
	s := carRentalStore(t)
	tx := s.Begin()
	if err := tx.CreateTable("avis", "trucks", []schema.Column{{Name: "id", Type: sqlval.KindInt}}); err != nil {
		t.Fatal(err)
	}
	tx.Commit()

	tx1, tx2 := s.Begin(), s.Begin()
	tx1.LockTimeout = 150 * time.Millisecond
	tx2.LockTimeout = 150 * time.Millisecond
	if _, err := tx1.TableForWrite("avis", "cars"); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.TableForWrite("avis", "trucks"); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, err := tx1.TableForWrite("avis", "trucks")
		errs <- err
	}()
	go func() {
		_, err := tx2.TableForWrite("avis", "cars")
		errs <- err
	}()
	timedOut := 0
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if errors.Is(err, schema.ErrLockTimeout) {
				timedOut++
			}
		case <-time.After(3 * time.Second):
			t.Fatal("deadlock not resolved")
		}
	}
	if timedOut == 0 {
		t.Fatal("expected at least one lock timeout")
	}
	tx1.Rollback()
	tx2.Rollback()
}

// TestRowCountReadableWhileWriting: IMPORT reads a table's row count
// without its lock, so the count must be safe to read while another
// transaction writes the table (run under -race), and never out of the
// range the writer passes through.
func TestRowCountReadableWhileWriting(t *testing.T) {
	s := carRentalStore(t)
	d, err := s.Database("avis")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.Table("cars")
	if err != nil {
		t.Fatal(err)
	}
	before := tbl.RowCount()
	const n = 200
	done := make(chan error, 1)
	go func() {
		tx := s.Begin()
		for i := 0; i < n; i++ {
			if err := tx.Insert("avis", "cars", schema.Row{sqlval.Int(int64(1000 + i)), sqlval.Str("q"), sqlval.Null(), sqlval.Str("new")}); err != nil {
				tx.Rollback()
				done <- err
				return
			}
		}
		done <- tx.Commit()
	}()
	for {
		if c := tbl.RowCount(); c < before || c > before+n {
			t.Fatalf("row count %d outside [%d, %d]", c, before, before+n)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if c := tbl.RowCount(); c != before+n {
				t.Fatalf("row count %d after commit, want %d", c, before+n)
			}
			return
		default:
		}
	}
}

// Property: a transaction that inserts k rows and rolls back leaves the
// table byte-identical in row count and contents.
func TestQuickRollbackRestores(t *testing.T) {
	s := carRentalStore(t)
	f := func(k uint8, del bool) bool {
		before := s.Begin()
		tbl, err := before.TableForRead("avis", "cars")
		if err != nil {
			return false
		}
		want := tbl.RowCount()
		before.Commit()

		tx := s.Begin()
		n := int(k%16) + 1
		for i := 0; i < n; i++ {
			if err := tx.Insert("avis", "cars", schema.Row{sqlval.Int(int64(1000 + i)), sqlval.Str("q"), sqlval.Null(), sqlval.Str("new")}); err != nil {
				tx.Rollback()
				return false
			}
		}
		if del {
			if err := tx.Delete("avis", "cars", 0); err != nil {
				tx.Rollback()
				return false
			}
		}
		tx.Rollback()

		after := s.Begin()
		tbl, err = after.TableForRead("avis", "cars")
		if err != nil {
			return false
		}
		got := tbl.RowCount()
		after.Commit()
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
