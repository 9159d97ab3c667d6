package lam

import (
	"context"
	"errors"
	"sync"
	"syscall"
	"testing"
	"time"

	"msql/internal/ldbms"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
)

// flakyClient is a Client whose calls fail on demand, with either a
// transient transport error or a definite server-answered one.
type flakyClient struct {
	mu       sync.Mutex
	failing  bool
	definite bool
	calls    int
}

func (f *flakyClient) setFailing(failing, definite bool) {
	f.mu.Lock()
	f.failing, f.definite = failing, definite
	f.mu.Unlock()
}

func (f *flakyClient) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

func (f *flakyClient) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if !f.failing {
		return nil
	}
	if f.definite {
		return errors.New("definite server error")
	}
	return syscall.ECONNREFUSED
}

func (f *flakyClient) ServiceName() string { return "flaky" }
func (f *flakyClient) Profile(ctx context.Context) (ldbms.Profile, error) {
	return ldbms.Profile{Name: "flaky"}, f.err()
}
func (f *flakyClient) Open(ctx context.Context, db string) (Session, error) {
	if err := f.err(); err != nil {
		return nil, err
	}
	return &flakySession{c: f, db: db}, nil
}
func (f *flakyClient) Describe(ctx context.Context, db, name string) ([]schema.Column, error) {
	return nil, f.err()
}
func (f *flakyClient) ListTables(ctx context.Context, db string) ([]string, error) {
	return nil, f.err()
}
func (f *flakyClient) ListViews(ctx context.Context, db string) ([]string, error) {
	return nil, f.err()
}
func (f *flakyClient) Close() error { return nil }

type flakySession struct {
	c  *flakyClient
	db string
}

func (s *flakySession) Exec(ctx context.Context, sql string) (*sqlengine.Result, error) {
	if err := s.c.err(); err != nil {
		return nil, err
	}
	return &sqlengine.Result{}, nil
}
func (s *flakySession) Load(ctx context.Context, table string, rows [][]sqlval.Value) (int, error) {
	return len(rows), s.c.err()
}
func (s *flakySession) Prepare(ctx context.Context) error  { return s.c.err() }
func (s *flakySession) Commit(ctx context.Context) error   { return s.c.err() }
func (s *flakySession) Rollback(ctx context.Context) error { return s.c.err() }
func (s *flakySession) State(ctx context.Context) (ldbms.SessionState, error) {
	return ldbms.StateActive, nil
}
func (s *flakySession) Database() string { return s.db }
func (s *flakySession) Close() error     { return nil }

func TestBreakerTripsAfterConsecutiveTransientFailures(t *testing.T) {
	fc := &flakyClient{}
	b := WithBreaker(fc, BreakerPolicy{Threshold: 3, Cooldown: time.Hour})
	fc.setFailing(true, false)

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := b.Profile(ctx); err == nil {
			t.Fatal("expected failure")
		}
	}
	if st := b.State(); st != BreakerOpen {
		t.Fatalf("state = %s after %d transient failures, want open", st, 3)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d", b.Trips())
	}
	// Open breaker fast-fails without touching the network.
	before := fc.callCount()
	_, err := b.Open(ctx, "db")
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v, want ErrBreakerOpen", err)
	}
	if fc.callCount() != before {
		t.Fatal("open breaker still reached the inner client")
	}
}

func TestDefiniteErrorsNeverTrip(t *testing.T) {
	fc := &flakyClient{}
	b := WithBreaker(fc, BreakerPolicy{Threshold: 2, Cooldown: time.Hour})
	fc.setFailing(true, true) // server answers, albeit with an error

	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := b.Profile(ctx); err == nil {
			t.Fatal("expected failure")
		}
	}
	if st := b.State(); st != BreakerClosed {
		t.Fatalf("state = %s, want closed — a site that answers is alive", st)
	}
}

func TestHalfOpenTrialClosesAndReopens(t *testing.T) {
	fc := &flakyClient{}
	b := WithBreaker(fc, BreakerPolicy{Threshold: 1, Cooldown: 20 * time.Millisecond})
	ctx := context.Background()

	fc.setFailing(true, false)
	_, _ = b.Profile(ctx) // trips (threshold 1)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %s, want open", b.State())
	}
	time.Sleep(30 * time.Millisecond)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %s after cooldown, want half-open", b.State())
	}

	// Trial failure re-opens immediately.
	if _, err := b.Profile(ctx); err == nil {
		t.Fatal("trial should fail")
	}
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("state = %s trips = %d, want re-opened", b.State(), b.Trips())
	}

	// Next trial succeeds and closes the breaker.
	time.Sleep(30 * time.Millisecond)
	fc.setFailing(false, false)
	if _, err := b.Profile(ctx); err != nil {
		t.Fatalf("trial call failed: %v", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %s, want closed after successful trial", b.State())
	}
}

func TestHealthProbeClosesBreakerEarly(t *testing.T) {
	fc := &flakyClient{}
	b := WithBreaker(fc, BreakerPolicy{
		Threshold: 1, Cooldown: time.Hour, // cooldown alone would keep it open
		ProbeInterval: 5 * time.Millisecond, ProbeTimeout: time.Second,
	})
	defer b.Close()
	ctx := context.Background()

	fc.setFailing(true, false)
	_, _ = b.Profile(ctx)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %s, want open", b.State())
	}
	fc.setFailing(false, false) // site recovers; only the probe can see it
	deadline := time.Now().Add(2 * time.Second)
	for b.State() != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("probe did not close the breaker (state %s)", b.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSessionOpsAreNeverGatedButFeedTheBreaker(t *testing.T) {
	fc := &flakyClient{}
	b := WithBreaker(fc, BreakerPolicy{Threshold: 2, Cooldown: time.Hour})
	ctx := context.Background()

	sess, err := b.Open(ctx, "db")
	if err != nil {
		t.Fatal(err)
	}
	// Site dies mid-transaction: session ops must keep reaching the
	// network (a 2PC participant cannot be abandoned by a breaker) even
	// as their failures trip it.
	fc.setFailing(true, false)
	for i := 0; i < 2; i++ {
		if _, err := sess.Exec(ctx, "SELECT 1"); errors.Is(err, ErrBreakerOpen) {
			t.Fatal("session op was gated by the breaker")
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %s, want open from session-op failures", b.State())
	}
	if err := sess.Commit(ctx); errors.Is(err, ErrBreakerOpen) {
		t.Fatal("commit was gated by an open breaker")
	}
	// New sessions, by contrast, fast-fail.
	if _, err := b.Open(ctx, "db"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open err = %v, want ErrBreakerOpen", err)
	}
}

// TestBreakerRecordsLoadFailures: like every session op, Load is never
// gated by the breaker but feeds it.
func TestBreakerRecordsLoadFailures(t *testing.T) {
	fc := &flakyClient{}
	b := WithBreaker(fc, BreakerPolicy{Threshold: 2, Cooldown: time.Hour})
	sess, err := b.Open(bg, "db")
	if err != nil {
		t.Fatal(err)
	}
	fc.setFailing(true, false)
	for i := 0; i < 2; i++ {
		if _, err := sess.Load(bg, "t", fidelityRows()); err == nil || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("load %d: err = %v, want the site's own failure", i, err)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %s, want open from load failures", b.State())
	}
	if _, err := sess.Load(bg, "t", fidelityRows()); errors.Is(err, ErrBreakerOpen) {
		t.Fatal("load was gated by an open breaker")
	}
}
