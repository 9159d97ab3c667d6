package mdserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"msql/internal/admit"
	"msql/internal/core"
	"msql/internal/demo"
	"msql/internal/mtlog"
)

// startServer serves a fresh demo federation with a coordinator journal
// and returns the server plus its federation.
func startServer(t *testing.T, opts Options) (*Server, *core.Federation) {
	t.Helper()
	fed, err := demo.Build(demo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := mtlog.Open(filepath.Join(t.TempDir(), "coord.log"))
	if err != nil {
		t.Fatal(err)
	}
	fed.SetJournal(j)
	srv, err := Serve("127.0.0.1:0", fed, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		j.Close()
	})
	return srv, fed
}

// scriptOK runs a script and fails the test on any script-level error or
// failed sync.
func scriptOK(t *testing.T, c *Client, src string) []string {
	t.Helper()
	res, err := c.Script(context.Background(), src)
	if err != nil {
		t.Fatalf("script failed: %v", err)
	}
	var states []string
	for _, r := range res {
		if r.Failed {
			t.Fatalf("statement failed: %s", r.Detail)
		}
		if r.State != "" {
			states = append(states, r.State)
		}
	}
	return states
}

// TestParallelSessionsCommit runs many concurrent client connections,
// each committing two-site vital units, and checks every unit
// eventually reaches success and all rows land. Concurrent units on the
// same table pair can deadlock across sites (each unit's fan-out tasks
// acquire their per-site X locks in parallel, so two units can grab
// them in opposite orders); the storage lock timeout breaks the cycle
// by aborting one side, which surfaces as a clean "aborted" sync — the
// multidatabase answer to global deadlock. The test therefore retries
// aborted units: the invariant is convergence, not first-try success.
func TestParallelSessionsCommit(t *testing.T) {
	srv, _ := startServer(t, Options{})

	const clients = 8
	const opsPer = 2
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), fmt.Sprintf("tenant%d", i%2))
			if err != nil {
				errCh <- err
				return
			}
			defer c.Close()
			for n := 0; n < opsPer; n++ {
				fn := 5000 + i*10 + n
				// flight% fans out to delta and united inside one vital
				// unit: each op is a genuine two-site 2PC.
				src := fmt.Sprintf(`USE delta VITAL united VITAL;
INSERT INTO flight%% VALUES (%d, 'Houston', 'Austin', '07:00', '08:00', 'wed', 55.0);
COMMIT;`, fn)
				deadline := time.Now().Add(30 * time.Second)
				for {
					res, err := c.Script(context.Background(), src)
					if err != nil {
						errCh <- fmt.Errorf("client %d op %d: %w", i, n, err)
						return
					}
					state := ""
					for _, r := range res {
						if r.Kind == "sync" {
							state = r.State
						}
					}
					if state == "success" {
						break
					}
					if state == "" {
						errCh <- fmt.Errorf("client %d op %d: no sync result (unit never formed)", i, n)
						return
					}
					if time.Now().After(deadline) {
						errCh <- fmt.Errorf("client %d op %d: never committed, last state %s", i, n, state)
						return
					}
					// Clean abort under contention: back off and retry.
					time.Sleep(time.Duration(10+i*7) * time.Millisecond)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Verify through a fresh client that the rows are visible.
	c, err := Dial(srv.Addr(), "verifier")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Script(context.Background(),
		`USE delta; SELECT COUNT(*) FROM delta.flight WHERE fnu >= 5000;`)
	if err != nil {
		t.Fatal(err)
	}
	var count string
	for _, r := range res {
		if r.Kind == "select" && len(r.Rows) > 0 {
			count = r.Rows[0][len(r.Rows[0])-1]
		}
	}
	if want := fmt.Sprintf("%d", clients*opsPer); count != want {
		t.Fatalf("delta row count = %q, want %s", count, want)
	}
}

// TestSequentialScriptsShareSession checks scope set by one Script call
// is visible to the next on the same connection, and not on another.
func TestSequentialScriptsShareSession(t *testing.T) {
	srv, _ := startServer(t, Options{})
	a, err := Dial(srv.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Script(context.Background(), `USE delta;`); err != nil {
		t.Fatal(err)
	}
	// Unqualified table name resolves through the session's scope.
	res, err := a.Script(context.Background(), `SELECT * FROM delta.flight;`)
	if err != nil {
		t.Fatalf("scoped select on same conn: %v", err)
	}
	found := false
	for _, r := range res {
		if r.Kind == "select" && len(r.Rows) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("scoped select returned no rows")
	}

	// A different connection has no scope: the same select must fail.
	b, err := Dial(srv.Addr(), "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.Script(context.Background(), `SELECT * FROM delta.flight;`); err == nil {
		t.Fatal("select without USE succeeded on a fresh connection")
	}
}

// TestMaxSessionsShedsWithOverload fills the connection cap and checks
// the next client is answered ErrOverload in-protocol, then admitted
// once a slot frees up.
func TestMaxSessionsShedsWithOverload(t *testing.T) {
	srv, _ := startServer(t, Options{MaxSessions: 2})

	var held []*Client
	for i := 0; i < 2; i++ {
		c, err := Dial(srv.Addr(), "holder")
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, c)
		// A round trip guarantees the server registered the connection.
		if _, err := c.Script(context.Background(), `USE delta;`); err != nil {
			t.Fatal(err)
		}
	}

	over, err := Dial(srv.Addr(), "late")
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	_, err = over.Script(context.Background(), `USE delta;`)
	if !errors.Is(err, admit.ErrOverload) {
		t.Fatalf("over-cap script err = %v, want ErrOverload", err)
	}

	// Freeing a session restores service for a fresh connection.
	held[0].Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := Dial(srv.Addr(), "retry")
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Script(context.Background(), `USE delta;`)
		c.Close()
		if err == nil {
			break
		}
		if !errors.Is(err, admit.ErrOverload) {
			t.Fatalf("retry err = %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("service never restored after closing a session")
		}
		time.Sleep(10 * time.Millisecond)
	}
	held[1].Close()
}

// TestCloseDoesNotWaitForSilentOverCapConnection: a connection shed
// for MaxSessions that never sends a request is still the server's to
// close, so Close returns at once instead of waiting for the peer.
func TestCloseDoesNotWaitForSilentOverCapConnection(t *testing.T) {
	srv, _ := startServer(t, Options{MaxSessions: 1})
	held, err := Dial(srv.Addr(), "holder")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	scriptOK(t, held, `USE delta;`)

	rejected := mRejected.Value()
	silent, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	for deadline := time.Now().Add(5 * time.Second); mRejected.Value() == rejected; {
		if time.Now().After(deadline) {
			t.Fatal("the over-cap connection was never accepted")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	srv.Close()
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("Close took %v behind a silent over-cap connection", took)
	}
}

// TestStatementAdmissionShedOverWire wires a saturated admission
// controller into the federation and checks the shed surfaces to the
// client as ErrOverload through the wire error table.
func TestStatementAdmissionShedOverWire(t *testing.T) {
	srv, fed := startServer(t, Options{})
	ctrl := admit.New(admit.Config{MaxConcurrent: 1, MaxQueuePerTenant: 1, MaxWait: 30 * time.Millisecond})
	fed.SetAdmission(ctrl)
	hold, err := ctrl.Acquire(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}

	c, err := Dial(srv.Addr(), "loud")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Script(context.Background(), `USE delta;`)
	if !errors.Is(err, admit.ErrOverload) {
		t.Fatalf("err = %v, want ErrOverload across the wire", err)
	}

	hold()
	// The same connection stays usable after a shed: nothing executed,
	// nothing broke the stream.
	if _, err := c.Script(context.Background(), `USE delta;`); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestStmtTimeoutSurfacesOverWire checks a federation statement timeout
// fails the script with a deadline error the client can see.
func TestStmtTimeoutSurfacesOverWire(t *testing.T) {
	srv, fed := startServer(t, Options{})
	c, err := Dial(srv.Addr(), "t")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	scriptOK(t, c, `USE delta;`)

	fed.StmtTimeout = time.Nanosecond
	_, err = c.Script(context.Background(), `SELECT * FROM delta.flight;`)
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	fed.StmtTimeout = 0
	scriptOK(t, c, `SELECT * FROM delta.flight;`)
}

// TestAbandonedSessionReleasesResources disconnects clients without
// reading their replies — some with a pending never-synced unit — and
// checks the server drains the sessions and later writers on the same
// tables are not blocked by leftover locks.
func TestAbandonedSessionReleasesResources(t *testing.T) {
	srv, _ := startServer(t, Options{})

	for i := 0; i < 8; i++ {
		c, err := Dial(srv.Addr(), "churn")
		if err != nil {
			t.Fatal(err)
		}
		src := fmt.Sprintf(`USE delta VITAL united VITAL;
INSERT INTO flight%% VALUES (%d, 'Houston', 'Austin', '07:00', '08:00', 'wed', 55.0);
COMMIT;`, 7000+i)
		if i%2 == 0 {
			// Fire the script and hang up without reading the reply.
			go func() { _, _ = c.Script(context.Background(), src) }()
			time.Sleep(time.Millisecond)
			c.Close()
		} else {
			// Hang up with a pending unit that never reached its sync point.
			if _, err := c.Script(context.Background(),
				`USE delta VITAL; INSERT INTO delta.flight VALUES (1, 'x', 'y', '01:00', '02:00', 'mon', 1.0);`); err != nil {
				t.Fatal(err)
			}
			c.Close()
		}
	}

	// All sessions must drain.
	deadline := time.Now().Add(5 * time.Second)
	for srv.ActiveSessions() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions never drained: %d live", srv.ActiveSessions())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A fresh client must be able to write the same tables promptly —
	// leftover locks from abandoned sessions would time this out.
	c, err := Dial(srv.Addr(), "after")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	states := scriptOK(t, c, `USE delta VITAL united VITAL;
INSERT INTO flight% VALUES (7999, 'Houston', 'Austin', '07:00', '08:00', 'wed', 55.0);
COMMIT;`)
	if len(states) == 0 || states[len(states)-1] != "success" {
		t.Fatalf("post-churn unit states = %v, want success", states)
	}
}
