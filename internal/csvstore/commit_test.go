package csvstore

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"msql/internal/schema"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// encodeImage is the whole-image encoder every commit used before rows
// carried their lines: the header, then every row's cells, through one
// csv.Writer. It is the oracle for the bytes a commit must leave on disk.
func encodeImage(t *table) []byte {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	header := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		header[i] = encodeColumn(c)
	}
	w.Write(header)
	cells := make([]string, len(t.Cols))
	for _, row := range t.Rows {
		for i, v := range row {
			cells[i] = encodeCell(v)
		}
		w.Write(cells)
	}
	w.Flush()
	return buf.Bytes()
}

// checkFiles asserts that the data directory holds exactly one file per
// committed table of d, each byte-identical to the oracle's encoding of
// the committed image.
func checkFiles(t *testing.T, s *Store) {
	t.Helper()
	names, err := s.ListTables("d")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		img, err := s.lookup("d", name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(s.dir, "d", name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeImage(img); !bytes.Equal(got, want) {
			t.Fatalf("%s.csv differs from the committed image:\n got %q\nwant %q", name, got, want)
		}
	}
	files, _ := filepath.Glob(filepath.Join(s.dir, "d", "*"))
	if len(files) != len(names) {
		t.Fatalf("files %v, tables %v", files, names)
	}
}

// randomStatement returns one random write against tables t0..t2 of d,
// keeping exists (which tables the script's committed and staged state
// holds) current.
func randomStatement(rng *rand.Rand, exists map[string]bool) string {
	name := fmt.Sprintf("t%d", rng.Intn(3))
	if !exists[name] {
		exists[name] = true
		return "CREATE TABLE " + name + " (id INTEGER, name CHAR(20), f FLOAT, b BOOLEAN)"
	}
	texts := []string{"plain", "a, with ''quote''", `say "hi"`, " lead", "", "line\nbreak"}
	switch k := rng.Intn(20); {
	case k < 9:
		var rows []string
		for n := 1 + rng.Intn(3); n > 0; n-- {
			f := "NULL"
			if rng.Intn(4) > 0 {
				f = fmt.Sprintf("%d.%d", rng.Intn(1000), rng.Intn(100))
			}
			rows = append(rows, fmt.Sprintf("(%d, '%s', %s, %v)", rng.Intn(50), texts[rng.Intn(len(texts))], f, rng.Intn(2) == 0))
		}
		return fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(rows, ", "))
	case k < 13:
		return fmt.Sprintf("UPDATE %s SET f = f * 1.5, name = '%s' WHERE id < %d", name, texts[rng.Intn(len(texts))], rng.Intn(50))
	case k < 19:
		return fmt.Sprintf("DELETE FROM %s WHERE id = %d OR id > %d", name, rng.Intn(50), 40+rng.Intn(10))
	default:
		delete(exists, name)
		return "DROP TABLE " + name
	}
}

// TestCommitBytesMatchWholeImageEncoder runs random scripts of INSERT,
// UPDATE, DELETE, DROP and CREATE commits (and some rollbacks) over a
// directory first written by the whole-image encoder, as the engine
// wrote it before lines travelled with the image. After every commit
// each table file must equal the oracle's encoding of the committed
// image, and a reopened store must hold the same images.
func TestCommitBytesMatchWholeImageEncoder(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dir := t.TempDir()
		// The starting file comes from the oracle alone.
		tx := begin(t, newDB(t, ""))
		mustExec(t, tx, "d", "CREATE TABLE t0 (id INTEGER, name CHAR(20), f FLOAT, b BOOLEAN)")
		mustExec(t, tx, "d", "INSERT INTO t0 VALUES (1, 'x, y', 2.5, TRUE), (2, NULL, NULL, FALSE), (3, 'z', 0.1, NULL)")
		seedImg, err := tx.read("d", "t0")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, "d"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "d", "t0.csv"), encodeImage(seedImg), 0o644); err != nil {
			t.Fatal(err)
		}
		s := reopen(t, dir)
		checkFiles(t, s)
		exists := map[string]bool{"t0": true}
		for step := 0; step < 60; step++ {
			committed := make(map[string]bool)
			for k, v := range exists {
				committed[k] = v
			}
			tx := begin(t, s)
			for n := 1 + rng.Intn(3); n > 0; n-- {
				mustExec(t, tx, "d", randomStatement(rng, exists))
			}
			if rng.Intn(8) == 0 {
				tx.Rollback()
				exists = committed
			} else if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			checkFiles(t, s)
		}
		again := reopen(t, dir)
		names, _ := s.ListTables("d")
		if got, _ := again.ListTables("d"); !reflect.DeepEqual(got, names) {
			t.Fatalf("seed %d: reopened tables %v, want %v", seed, got, names)
		}
		for _, name := range names {
			want, _ := s.lookup("d", name)
			got, _ := again.lookup("d", name)
			if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("seed %d: reopened %s = %v, want %v", seed, name, got.Rows, want.Rows)
			}
		}
	}
}

// TestConcurrentCommitsWriteBeforePublish has 8 goroutines commit to
// their own tables and to two shared ones, while a reader checks that
// every image it sees has already been written to its file.
func TestConcurrentCommitsWriteBeforePublish(t *testing.T) {
	var mu sync.Mutex
	written := map[string]map[string]bool{} // path -> file contents written
	real := replaceFile
	replaceFile = func(path string, data []byte) error {
		if err := real(path, data); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		if written[path] == nil {
			written[path] = map[string]bool{}
		}
		written[path][string(data)] = true
		return nil
	}
	t.Cleanup(func() { replaceFile = real })

	const workers, commits = 8, 25
	dir := t.TempDir()
	s := newDB(t, dir)
	names := []string{"shared0", "shared1"}
	for w := 0; w < workers; w++ {
		names = append(names, fmt.Sprintf("own%d", w))
	}
	tx := begin(t, s)
	for _, n := range names {
		mustExec(t, tx, "d", "CREATE TABLE "+n+" (w INTEGER, i INTEGER, f FLOAT)")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	readerDone := make(chan error)
	go func() {
		for {
			select {
			case <-stop:
				readerDone <- nil
				return
			default:
			}
			for _, n := range names {
				img, err := s.lookup("d", n)
				if err != nil {
					readerDone <- err
					return
				}
				enc := string(encodeImage(img))
				mu.Lock()
				ok := written[filepath.Join(dir, "d", n+".csv")][enc]
				mu.Unlock()
				if !ok {
					readerDone <- fmt.Errorf("%s: published image of %d rows was never written", n, len(img.Rows))
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				tx := s.Begin().(*Tx)
				stmts := []string{fmt.Sprintf("INSERT INTO own%d VALUES (%d, %d, %d.5)", w, w, i, i)}
				switch i % 4 {
				case 1:
					stmts = append(stmts, fmt.Sprintf("INSERT INTO shared%d VALUES (%d, %d, 0.25)", w%2, w, i))
				case 2:
					stmts = append(stmts, fmt.Sprintf("INSERT INTO shared1 VALUES (%d, %d, 1.0)", w, i),
						fmt.Sprintf("INSERT INTO shared0 VALUES (%d, %d, 2.0)", w, i))
				case 3:
					stmts = append(stmts, fmt.Sprintf("DELETE FROM shared%d WHERE w = %d AND i < %d", w%2, w, i-4),
						fmt.Sprintf("UPDATE own%d SET f = f + 1 WHERE i = %d", w, i-1))
				}
				for _, q := range stmts {
					stmt, err := sqlparser.ParseStatement(q)
					if err == nil {
						_, err = tx.Exec("d", q, stmt)
					}
					if err != nil {
						errs <- fmt.Errorf("%q: %w", q, err)
						return
					}
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-readerDone; err != nil {
		t.Fatal(err)
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkFiles(t, s)
	for w := 0; w < workers; w++ {
		img, _ := s.lookup("d", fmt.Sprintf("own%d", w))
		if len(img.Rows) != commits {
			t.Fatalf("own%d holds %d rows, want %d", w, len(img.Rows), commits)
		}
	}
}

// TestOneRowCommitAllocations pins what a one-row INSERT commit into a
// 2,000-row file-backed table allocates, statement and file write
// included. Re-encoding every row costs at least one allocation a row;
// the ceiling sits about 20 % above the figure measured when it was set,
// far below that.
func TestOneRowCommitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	s := newDB(t, t.TempDir())
	tx := begin(t, s)
	mustExec(t, tx, "d", "CREATE TABLE big (id INTEGER, city CHAR(20), rate FLOAT)")
	for i := 0; i < 2000; i++ {
		row := schema.Row{sqlval.Int(int64(i)), sqlval.Str(fmt.Sprintf("city %d", i%97)), sqlval.Float(float64(i) / 8)}
		if err := tx.Insert("d", "big", row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	const q = "INSERT INTO big VALUES (9999, 'Houston', 12.75)"
	stmt, err := sqlparser.ParseStatement(q)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		tx := s.Begin()
		if _, err := tx.Exec("d", q, stmt); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one-row INSERT commit: %.0f allocations", allocs)
	const ceiling = 50 // measured 41
	if allocs > ceiling {
		t.Fatalf("one-row INSERT commit: %.0f allocations, ceiling %d", allocs, ceiling)
	}
	checkFiles(t, s)
}
