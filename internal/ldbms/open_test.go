package ldbms

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOpenReopensDir: Open boots a new database on either engine, in
// memory or on disk, and a server reopened on the same Dir keeps its
// committed rows without booting again.
func TestOpenReopensDir(t *testing.T) {
	count := func(t *testing.T, srv *Server) int {
		t.Helper()
		sess, err := srv.OpenSession("dbd")
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Exec("SELECT id FROM acct")
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	for _, backend := range []string{BackendRel, BackendCSV} {
		t.Run(backend, func(t *testing.T) {
			for _, disk := range []bool{false, true} {
				spec := Spec{Service: "svc_d", Backend: backend, DB: "dbd", Boot: []string{
					"CREATE TABLE acct (id INTEGER, owner CHAR(16))",
					"INSERT INTO acct VALUES (1, 'seed1'), (2, 'seed2')",
				}}
				if disk {
					spec.Dir = t.TempDir()
				}
				srv, err := Open(spec)
				if err != nil {
					t.Fatal(err)
				}
				if n := count(t, srv); n != 2 {
					t.Fatalf("disk=%v: booted acct holds %d rows, want 2", disk, n)
				}
				if err := srv.boot("dbd", []string{"INSERT INTO acct VALUES (9, 'kept')"}); err != nil {
					t.Fatal(err)
				}
				if err := srv.Close(); err != nil {
					t.Fatal(err)
				}
				if !disk {
					continue
				}
				if srv, err = Open(spec); err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer srv.Close()
				if n := count(t, srv); n != 3 {
					t.Fatalf("reopened acct holds %d rows, want 3 (2 booted once + 1 committed)", n)
				}
			}
		})
	}
}

// TestOpenBootFailure: a boot statement that fails makes Open fail with
// an error naming it, after closing the engine (a disk engine's close
// checkpoints its catalog).
func TestOpenBootFailure(t *testing.T) {
	dir := t.TempDir()
	_, err := Open(Spec{Service: "svc_bad", DB: "dbb", Dir: dir, Boot: []string{
		"CREATE TABLE acct (id INTEGER)",
		"INSERT INTO nosuch VALUES (1)",
	}})
	if err == nil || !strings.Contains(err.Error(), "INSERT INTO nosuch VALUES (1)") {
		t.Fatalf("Open = %v, want an error naming the failing boot statement", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "catalog.json")); err != nil {
		t.Fatalf("engine not closed after the failed boot: %v", err)
	}
	if _, err := Open(Spec{Service: "svc_bad", Backend: "tape"}); err == nil {
		t.Fatal("Open accepted an unknown backend")
	}
}

// TestOpenAfterFailedBootBootsAgain: a boot that fails after creating
// its first table leaves no database behind on disk, so the next Open on
// the same Dir boots afresh rather than adopting a database without its
// tables.
func TestOpenAfterFailedBootBootsAgain(t *testing.T) {
	for _, backend := range []string{BackendRel, BackendCSV} {
		t.Run(backend, func(t *testing.T) {
			spec := Spec{Service: "svc_re", Backend: backend, DB: "d", Dir: t.TempDir(), Boot: []string{
				"CREATE TABLE a (x INTEGER)",
				"INSERT INTO nosuch VALUES (1)",
			}}
			if _, err := Open(spec); err == nil {
				t.Fatal("Open with a failing boot succeeded")
			}
			spec.Boot = []string{"CREATE TABLE a (x INTEGER)", "INSERT INTO a VALUES (7)"}
			srv, err := Open(spec)
			if err != nil {
				t.Fatalf("reopen with a good boot: %v", err)
			}
			defer srv.Close()
			sess, err := srv.OpenSession("d")
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			res, err := sess.Exec("SELECT x FROM a")
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
				t.Fatalf("rows = %v, want the good boot's one row", res.Rows)
			}
		})
	}
}

// TestBehindLDBMSAutoCommitProfile drives the csv engine through the
// full session layer: behind ProfileAutoCommitOnly every statement commits
// on its own, Prepare is refused by the profile, and the server's
// Prepares counter stays zero — the invariant the fleet soak asserts.
func TestBehindLDBMSAutoCommitProfile(t *testing.T) {
	srv, err := Open(Spec{Service: "csvsvc", Profile: ProfileAutoCommitOnly(), Backend: BackendCSV, DB: "d"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.OpenSession("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("INSERT INTO t VALUES (7)"); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.SilentCommits != 2 {
		t.Fatalf("silent commits = %d, want 2 (every statement autocommits)", st.SilentCommits)
	}
	if err := sess.Prepare(); !errors.Is(err, ErrNoTwoPC) {
		t.Fatalf("Prepare = %v, want ErrNoTwoPC", err)
	}
	if srv.Stats().Prepares != 0 {
		t.Fatal("autocommit-only server counted a prepare")
	}
	// Another session sees the committed rows.
	sess2, err := srv.OpenSession("d")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess2.Exec("SELECT a FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 7 {
		t.Fatalf("rows = %v", res.Rows)
	}
	names, err := sess2.ListTables()
	if err != nil || len(names) != 1 || names[0] != "t" {
		t.Fatalf("ListTables = %v, %v", names, err)
	}
	desc, err := sess2.Describe("t")
	if err != nil || len(desc.Columns) != 1 || desc.Columns[0].Name != "a" || desc.Rows != 1 {
		t.Fatalf("Describe = %+v, %v", desc, err)
	}
}
