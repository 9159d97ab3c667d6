package ldbms

import "testing"

// TestSessionRedoTracking: the redo list mirrors the open transaction —
// effect-bearing statements accumulate, selects are skipped, and every
// transaction outcome (commit, rollback, autocommit) clears it.
func TestSessionRedoTracking(t *testing.T) {
	srv := openEmpty(t, ProfileOracleLike())
	if err := srv.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.OpenSession("db")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	mustExec := func(q string) {
		t.Helper()
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("CREATE TABLE t (a INTEGER)")
	mustExec("INSERT INTO t VALUES (1)")
	mustExec("SELECT a FROM t")
	if redo := sess.Redo(); len(redo) != 2 || redo[1] != "INSERT INTO t VALUES (1)" {
		t.Fatalf("redo = %v, want create+insert (selects excluded)", redo)
	}
	// An executed EXPLAIN ANALYZE of a write is a write: its target, not
	// the profiling wrapper, is what replay re-applies. A plain EXPLAIN
	// plans without executing and leaves no effect to redo.
	mustExec("EXPLAIN UPDATE t SET a = 7 WHERE a = 1")
	mustExec("EXPLAIN ANALYZE UPDATE t SET a = a + 1 WHERE a = 1")
	if redo := sess.Redo(); len(redo) != 3 || redo[2] != "UPDATE t SET a = a + 1 WHERE a = 1" {
		t.Fatalf("redo = %v, want the EXPLAIN ANALYZE target as third entry", redo)
	}
	// Redo survives the prepared state: it is exactly what a restarted
	// server replays to re-materialize the vote.
	if err := sess.Prepare(); err != nil {
		t.Fatal(err)
	}
	if redo := sess.Redo(); len(redo) != 3 {
		t.Fatalf("redo after prepare = %v", redo)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if redo := sess.Redo(); len(redo) != 0 {
		t.Fatalf("redo after commit = %v, want empty", redo)
	}

	mustExec("INSERT INTO t VALUES (2)")
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	if redo := sess.Redo(); len(redo) != 0 {
		t.Fatalf("redo after rollback = %v, want empty", redo)
	}
}

// TestSessionRedoAutocommitCleared: on a server that autocommits a
// statement class, the silent commit empties the redo list — those
// effects are the local DBMS's own durability problem, not the 2PC
// window's.
func TestSessionRedoAutocommitCleared(t *testing.T) {
	srv := openEmpty(t, ProfileIngresLike())
	if err := srv.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.OpenSession("db")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	// ProfileIngresLike autocommits DDL: CREATE silently commits.
	if _, err := sess.Exec("CREATE TABLE t (a INTEGER)"); err != nil {
		t.Fatal(err)
	}
	if sess.State() != StateCommitted {
		t.Skip("profile does not autocommit CREATE; redo-clearing is covered elsewhere")
	}
	if redo := sess.Redo(); len(redo) != 0 {
		t.Fatalf("redo after autocommit = %v, want empty", redo)
	}
}
