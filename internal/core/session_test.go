package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"msql/internal/admit"
	"msql/internal/mtlog"
)

// TestSessionStateIsolation verifies that two sessions on one federation
// carry independent scope, LET, and unit state: what one accumulates or
// scopes never leaks into the other.
func TestSessionStateIsolation(t *testing.T) {
	f := paperFederation(t, false)
	a := f.NewSession("a")
	b := f.NewSession("b")

	if _, err := a.ExecScript(`USE delta;`); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ExecScript(`USE united VITAL avis;`); err != nil {
		t.Fatal(err)
	}
	as, bs := a.Scope(), b.Scope()
	if len(as) != 1 || as[0].Database != "delta" {
		t.Fatalf("session a scope = %+v", as)
	}
	if len(bs) != 2 || bs[0].Database != "united" || !bs[0].Vital {
		t.Fatalf("session b scope = %+v", bs)
	}
	// The legacy default-session API must be yet another independent
	// session, not an alias of a or b.
	if got := f.Scope(); len(got) != 0 {
		t.Fatalf("default session scope = %+v, want empty", got)
	}
}

// TestConcurrentSessionsCommit runs parallel sessions through full
// commit-mode units against the shared engine, journal, and stores, and
// checks every unit lands in a clean terminal state with its rows
// actually visible.
func TestConcurrentSessionsCommit(t *testing.T) {
	f := paperFederation(t, false)
	j, err := mtlog.Open(filepath.Join(t.TempDir(), "mt.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	f.SetJournal(j)

	const sessions = 8
	const opsPer = 3
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := f.NewSession(fmt.Sprintf("tenant%d", i%2))
			for n := 0; n < opsPer; n++ {
				fn := 9000 + i*100 + n
				script := fmt.Sprintf(`USE delta VITAL united VITAL;
INSERT INTO delta.flight VALUES (%d, 'Houston', 'Austin', '07:00', '08:00', 'wed', 55.0);
INSERT INTO united.flight VALUES (%d, 'Houston', 'Austin', '07:30', '08:30', 'wed', 56.0);
COMMIT;`, fn, fn)
				results, err := s.ExecScriptContext(context.Background(), script)
				if err != nil {
					errCh <- fmt.Errorf("session %d op %d: %w", i, n, err)
					return
				}
				for _, r := range results {
					if r.Kind == KindSync && r.State != StateSuccess {
						errCh <- fmt.Errorf("session %d op %d: state %v", i, n, r.State)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Every row from every session must be present on both sites.
	rate := localRate(t, f, "svc_delta", "delta",
		`SELECT COUNT(*) FROM flight WHERE fnu >= 9000`)
	if int(rate) != sessions*opsPer {
		t.Fatalf("delta rows = %v, want %d", rate, sessions*opsPer)
	}
	// The shared journal must never fsync more than once per forced record
	// (concurrent sessions may share fsyncs) and hold no
	// un-ended multitransactions.
	states, err := j.States()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		if !st.Ended {
			t.Fatalf("mt%d not ended after clean concurrent run", st.MTID)
		}
	}
	synced, fsyncs := j.SyncStats()
	if synced == 0 {
		t.Fatal("no sync records journaled")
	}
	if fsyncs > synced {
		t.Fatalf("fsyncs %d > sync records %d", fsyncs, synced)
	}
}

// TestSessionAdmissionOverload saturates a tiny admission gate and
// checks the surplus statements shed with ErrOverload instead of
// queueing without bound.
func TestSessionAdmissionOverload(t *testing.T) {
	f := paperFederation(t, false)
	ctrl := admit.New(admit.Config{
		MaxConcurrent:     1,
		MaxQueuePerTenant: 1,
		MaxWait:           50 * time.Millisecond,
	})
	f.SetAdmission(ctrl)

	// Occupy the only execution slot so every session hits the queue.
	hold, err := ctrl.Acquire(context.Background(), "hog")
	if err != nil {
		t.Fatal(err)
	}

	const sessions = 4
	var wg sync.WaitGroup
	var mu sync.Mutex
	shed := 0
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := f.NewSession("loud")
			_, err := s.ExecScript(`USE delta; SELECT * FROM delta.flight;`)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case errors.Is(err, admit.ErrOverload):
				shed++
			case err != nil:
				t.Errorf("session %d: unexpected error %v", i, err)
			default:
				t.Errorf("session %d: got through a fully held gate", i)
			}
		}(i)
	}
	wg.Wait()
	if shed != sessions {
		t.Fatalf("shed = %d, want %d (all sessions, via queue-full or timeout)", shed, sessions)
	}
	if _, queued := ctrl.Stats(); queued != 0 {
		t.Fatalf("queue not drained: %d", queued)
	}

	// Releasing the slot restores service.
	hold()
	s := f.NewSession("loud")
	if _, err := s.ExecScript(`USE delta; SELECT * FROM delta.flight;`); err != nil {
		t.Fatalf("after release: %v", err)
	}
}

// TestStmtTimeoutWired checks the federation's StmtTimeout reaches the
// statement's execution context: with an unmeetable budget the LAM call
// fails on the expired deadline instead of executing: with a 1 ns budget
// the deadline has passed before the first request is written.
// (Interruption of calls blocked mid-wire is covered by the lam and
// mdserver tests.)
func TestStmtTimeoutWired(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript(`USE delta;`); err != nil {
		t.Fatal(err)
	}
	f.StmtTimeout = time.Nanosecond
	start := time.Now()
	_, err := f.ExecScript(`SELECT * FROM delta.flight;`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("statement took %v despite 1ns timeout", d)
	}
	f.StmtTimeout = 0
	if _, err := f.ExecScript(`SELECT * FROM delta.flight;`); err != nil {
		t.Fatalf("after clearing timeout: %v", err)
	}
}
