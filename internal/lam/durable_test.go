package lam

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/sqlval"
	"msql/internal/wire"
)

// durableServe boots a fresh delta server on the journal at path. Each
// call builds a new ldbms.Server from the same bootstrap, modeling a
// restarted process whose in-memory store is gone and must be
// re-materialized from the journal.
func durableServe(t *testing.T, path string, opts ServeOptions) *TCPServer {
	t.Helper()
	j, err := mtlog.OpenParticipant(path)
	if err != nil {
		t.Fatal(err)
	}
	opts.Journal = j
	ts, err := ServeWith("127.0.0.1:0", deltaServer(t), opts)
	if err != nil {
		j.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	return ts
}

// prepareAndOrphan opens a session, runs an update, prepares it, and
// severs the connection without closing the session — leaving the server
// with a parked in-doubt participant. Returns the orphaned session id.
func prepareAndOrphan(t *testing.T, addr string) int64 {
	t.Helper()
	return prepareAndOrphanSQL(t, addr, "UPDATE flight SET rate = 175.0 WHERE fnu = 10")
}

// prepareAndOrphanSQL is prepareAndOrphan with the session's one write
// given by the caller.
func prepareAndOrphanSQL(t *testing.T, addr, sql string) int64 {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(bg, sql); err != nil {
		t.Fatal(err)
	}
	ctx := WithMTID(bg, 99)
	if err := sess.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	rs := sess.(*remoteSession)
	id := rs.id.Load()
	rs.conn.close() // sever, do not ReqCloseSession
	return id
}

// rate10 reads the rate of flight 10 through a fresh client session.
func rate10(t *testing.T, addr string) float64 {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec(bg, "SELECT rate FROM flight WHERE fnu = 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	f, _ := res.Rows[0][0].AsFloat()
	return f
}

// TestDurableRestartResolvesPrepared is the participant half of the
// §3.2.2 in-doubt window across a restart: a session prepared on server
// 1 (whose store dies with it) must be re-materialized by server 2 from
// the journal and drivable to commit, with the effects visible
// exactly once.
func TestDurableRestartResolvesPrepared(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.journal")
	ts1 := durableServe(t, path, ServeOptions{})
	id := prepareAndOrphan(t, ts1.Addr())

	// Wait for the server to park the orphan, then stop it. With a
	// journal, Close leaves parked sessions journaled instead of
	// aborting them.
	waitParked(t, ts1, id)
	if err := ts1.Close(); err != nil {
		t.Fatal(err)
	}

	ts2 := durableServe(t, path, ServeOptions{})
	if ids := ts2.InDoubt(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("in-doubt after restart = %v, want [%d]", ids, id)
	}
	st, err := resolveAt(bg, ts2.Addr(), id, true)
	if err != nil {
		t.Fatal(err)
	}
	if st != ldbms.StateCommitted {
		t.Fatalf("resolved state = %v, want committed", st)
	}
	if got := rate10(t, ts2.Addr()); got != 175.0 {
		t.Fatalf("rate after recovery = %v, want 175 (exactly once)", got)
	}
	// The outcome tombstone answers a retrying coordinator...
	if st, err := resolveAt(bg, ts2.Addr(), id, true); err != nil || st != ldbms.StateCommitted {
		t.Fatalf("re-resolve = %v, %v", st, err)
	}
	// ...until the END acknowledgment releases it and compacts the journal.
	if err := forgetAt(bg, ts2.Addr(), id); err != nil {
		t.Fatal(err)
	}
	if n := ts2.Tombstones(); n != 0 {
		t.Fatalf("tombstones after forget = %d, want 0", n)
	}
}

// TestDurableRestartReplaysExplainAnalyzeWrite: a write that arrived
// wrapped in EXPLAIN ANALYZE (the federation's EXPLAIN ANALYZE UPDATE
// wraps write task bodies that way) is a write to the session layer: it
// is captured for redo, so the prepared session survives a restart and
// the resolved commit applies the increment exactly once.
func TestDurableRestartReplaysExplainAnalyzeWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.journal")
	ts1 := durableServe(t, path, ServeOptions{})
	id := prepareAndOrphanSQL(t, ts1.Addr(), "EXPLAIN ANALYZE UPDATE flight SET rate = rate + 25.0 WHERE fnu = 10")
	waitParked(t, ts1, id)
	if err := ts1.Close(); err != nil {
		t.Fatal(err)
	}

	ts2 := durableServe(t, path, ServeOptions{})
	if ids := ts2.InDoubt(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("in-doubt after restart = %v, want [%d]", ids, id)
	}
	if st, err := resolveAt(bg, ts2.Addr(), id, true); err != nil || st != ldbms.StateCommitted {
		t.Fatalf("resolve = %v, %v, want committed", st, err)
	}
	if got := rate10(t, ts2.Addr()); got != 175.0 {
		t.Fatalf("rate after recovery = %v, want 150 + 25 applied exactly once", got)
	}
}

// TestDurableRestartReplaysLoadedRows is the cross-database INSERT ...
// SELECT transfer as its target participant sees it: a temporary table
// created, the shipped rows loaded into it, an INSERT ... SELECT out of
// it, the temporary table dropped, PREPARE. The temporary table and its
// rows exist only in the session's memory and redo, the rows rendered to
// INSERT text when the vote is journaled; a restarted server
// re-materializes the prepared transaction from that text, temporary
// table included, and commits to the same target rows.
func TestDurableRestartReplaysLoadedRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.journal")
	ts1 := durableServe(t, path, ServeOptions{})
	c, err := Dial(ts1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	rows := fidelityRows()
	mustExec := func(q string) {
		t.Helper()
		if _, err := sess.Exec(bg, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExec("CREATE TEMPORARY TABLE mtmp_united (fn INTEGER, sour CHAR(20), dest CHAR(20), rates FLOAT)")
	for _, batch := range [][][]sqlval.Value{rows[:4], rows[4:]} {
		if _, err := sess.Load(bg, "mtmp_united", batch); err != nil {
			t.Fatal(err)
		}
	}
	mustExec("INSERT INTO flight SELECT fn, sour, dest, rates FROM mtmp_united")
	mustExec("DROP TABLE mtmp_united")
	if err := sess.Prepare(WithMTID(bg, 99)); err != nil {
		t.Fatal(err)
	}
	rs := sess.(*remoteSession)
	id := rs.id.Load()
	rs.conn.close() // sever, do not ReqCloseSession
	waitParked(t, ts1, id)
	if err := ts1.Close(); err != nil {
		t.Fatal(err)
	}

	ts2 := durableServe(t, path, ServeOptions{})
	if ids := ts2.InDoubt(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("in-doubt after restart = %v, want [%d]", ids, id)
	}
	if st, err := resolveAt(bg, ts2.Addr(), id, true); err != nil || st != ldbms.StateCommitted {
		t.Fatalf("resolve = %v, %v, want committed", st, err)
	}
	c2, err := Dial(ts2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	check, err := c2.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer check.Close()
	res, err := check.Exec(bg, "SELECT fnu, source, dest, rate FROM flight WHERE fnu >= 20 ORDER BY fnu")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, rows) {
		t.Fatalf("target rows after restart and commit\n %v\nwant\n %v", res.Rows, rows)
	}
	if tables, err := c2.ListTables(bg, "delta"); err != nil || len(tables) != 1 {
		t.Fatalf("tables = %v, %v: the temporary table reached the catalog", tables, err)
	}
}

// TestDurableRestartCommittedUnacked: the participant committed but
// crashed before the coordinator acknowledged. The restarted server must
// re-apply the committed effects (its store was lost) and keep answering
// "committed" from the durable tombstone.
func TestDurableRestartCommittedUnacked(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.journal")
	ts1 := durableServe(t, path, ServeOptions{})
	id := prepareAndOrphan(t, ts1.Addr())
	waitParked(t, ts1, id)

	// Coordinator resolves to commit, but its END acknowledgment never
	// arrives before the "crash".
	if st, err := resolveAt(bg, ts1.Addr(), id, true); err != nil || st != ldbms.StateCommitted {
		t.Fatalf("resolve = %v, %v", st, err)
	}
	if err := ts1.Close(); err != nil {
		t.Fatal(err)
	}

	ts2 := durableServe(t, path, ServeOptions{})
	if got := rate10(t, ts2.Addr()); got != 175.0 {
		t.Fatalf("rate after restart = %v, want 175 (committed effects re-applied)", got)
	}
	if st, err := resolveAt(bg, ts2.Addr(), id, true); err != nil || st != ldbms.StateCommitted {
		t.Fatalf("resolve after restart = %v, %v (tombstone must survive)", st, err)
	}
}

// TestDurableRestartPresumedAbort: a session that never reached its
// decision resolves to rollback after restart, and an id the server has
// never heard of answers the definite wire.ErrNoSession — the presumed
// abort answer, not a retryable fault.
func TestDurableRestartPresumedAbort(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.journal")
	ts1 := durableServe(t, path, ServeOptions{})
	id := prepareAndOrphan(t, ts1.Addr())
	waitParked(t, ts1, id)
	if err := ts1.Close(); err != nil {
		t.Fatal(err)
	}

	ts2 := durableServe(t, path, ServeOptions{})
	st, err := resolveAt(bg, ts2.Addr(), id, false)
	if err != nil {
		t.Fatal(err)
	}
	if st != ldbms.StateAborted {
		t.Fatalf("state = %v, want aborted", st)
	}
	if got := rate10(t, ts2.Addr()); got != 150.0 {
		t.Fatalf("rate after abort = %v, want the seed 150", got)
	}

	_, nerr := resolveAt(bg, ts2.Addr(), id+1000, true)
	if !errors.Is(nerr, wire.ErrNoSession) {
		t.Fatalf("unknown session error = %v, want wire.ErrNoSession", nerr)
	}
	if wire.Transient(nerr) {
		t.Fatalf("ErrNoSession must be definite, not transient: %v", nerr)
	}
}

// TestTombstoneTTLEviction: without coordinator acknowledgments the TTL
// janitor bounds the tombstone map, journaling the eviction as an ack so
// compaction can reclaim the session.
func TestTombstoneTTLEviction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.journal")
	ts := durableServe(t, path, ServeOptions{TombstoneTTL: 50 * time.Millisecond, CompactEvery: 1})
	id := prepareAndOrphan(t, ts.Addr())
	waitParked(t, ts, id)
	if st, err := resolveAt(bg, ts.Addr(), id, true); err != nil || st != ldbms.StateCommitted {
		t.Fatalf("resolve = %v, %v", st, err)
	}
	if n := ts.Tombstones(); n != 1 {
		t.Fatalf("tombstones = %d, want 1", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ts.Tombstones() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("tombstone never evicted by TTL")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The eviction acked the session: compaction (CompactEvery=1) must
	// have emptied the journal.
	waitEmptyJournal(t, ts)
}

// TestZeroOptionsArmJanitor: a server started without options (as the
// benchmark, core.ServeLocal and most tests start one) still releases
// tombstones and refused ids by TTL, at the 5-minute default, and Close
// stops that janitor, harmlessly twice.
func TestZeroOptionsArmJanitor(t *testing.T) {
	ts, err := Serve("127.0.0.1:0", deltaServer(t))
	if err != nil {
		t.Fatal(err)
	}
	if ts.opts.TombstoneTTL != 5*time.Minute {
		t.Fatalf("TombstoneTTL = %v, want the 5m default", ts.opts.TombstoneTTL)
	}
	if ts.janitorDone == nil {
		t.Fatal("no janitor started")
	}
	select {
	case <-ts.janitorDone:
		t.Fatal("janitor exited while serving")
	default:
	}
	ts.Close()
	select {
	case <-ts.janitorDone:
	default:
		t.Fatal("Close left the janitor running")
	}
	ts.Close()
}

// TestForgetCompactsJournal: the ACK round releases the journal — after
// forget, a compacting server retains nothing for the session.
func TestForgetCompactsJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.journal")
	ts := durableServe(t, path, ServeOptions{CompactEvery: 1})
	id := prepareAndOrphan(t, ts.Addr())
	waitParked(t, ts, id)
	if st, err := resolveAt(bg, ts.Addr(), id, true); err != nil || st != ldbms.StateCommitted {
		t.Fatalf("resolve = %v, %v", st, err)
	}
	if err := forgetAt(bg, ts.Addr(), id); err != nil {
		t.Fatal(err)
	}
	waitEmptyJournal(t, ts)
	// Idempotent: forgetting again is a no-op, not an error.
	if err := forgetAt(bg, ts.Addr(), id); err != nil {
		t.Fatalf("second forget = %v", err)
	}
}

func waitParked(t *testing.T, ts *TCPServer, id int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ids := ts.InDoubt()
		if len(ids) == 1 && ids[0] == id {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %d never parked; in-doubt = %v", id, ids)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitEmptyJournal(t *testing.T, ts *TCPServer) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sessions, err := ts.journal.Sessions()
		if err != nil {
			t.Fatal(err)
		}
		if len(sessions) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journal never compacted; sessions = %+v", sessions)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
