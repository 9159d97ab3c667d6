package lam

import (
	"context"
	"errors"
	"testing"
	"time"

	"msql/internal/netfault"
)

// proxiedServer starts a LAM TCP server behind a netfault proxy and
// returns the proxy (clients dial proxy.Addr()).
func proxiedServer(t *testing.T) *netfault.Proxy {
	t.Helper()
	srv := deltaServer(t)
	ts, err := Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ts.Close() })
	p, err := netfault.New(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestCancelUnblocksCallHungMidFrame drives a call into a blackholed
// link — bytes vanish, the reply never comes — and cancels its context.
// The caller must get control back promptly instead of sitting out the
// full CallTimeout pinned on the read.
func TestCancelUnblocksCallHungMidFrame(t *testing.T) {
	p := proxiedServer(t)
	r, err := DialWith(context.Background(), p.Addr(), DialOptions{CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sess, err := r.Open(context.Background(), "delta")
	if err != nil {
		t.Fatal(err)
	}

	p.SetBlackhole(true)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sess.Exec(ctx, "SELECT * FROM flight")
	if err == nil {
		t.Fatal("exec on a blackholed link succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancellation took %v; the caller was pinned mid-frame", d)
	}
}

// TestWaiterNotPinnedBehindHungCall issues a second call on a connection
// whose current call is hung on a blackholed link. The second caller's
// short deadline must bound ITS wait for the connection — it gives up
// when its context dies, not when the hung call's generous CallTimeout
// finally fires.
func TestWaiterNotPinnedBehindHungCall(t *testing.T) {
	p := proxiedServer(t)
	r, err := DialWith(context.Background(), p.Addr(), DialOptions{CallTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	sess, err := r.Open(context.Background(), "delta")
	if err != nil {
		t.Fatal(err)
	}

	p.SetBlackhole(true)
	hung := make(chan error, 1)
	hctx, hcancel := context.WithCancel(context.Background())
	defer hcancel()
	go func() {
		_, err := sess.Exec(hctx, "SELECT * FROM flight")
		hung <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the first call occupy the wire

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = sess.Exec(ctx, "SELECT * FROM flight")
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("waiter blocked %v behind the hung call", elapsed)
	}

	hcancel()
	if err := <-hung; err == nil {
		t.Fatal("hung call succeeded on a blackholed link")
	}
}

// TestSessionConnPooling checks that cleanly closed session connections
// are reused by later opens, the pool never grows past maxIdleConns, and a
// pooled connection gone stale falls through to a fresh dial instead of
// failing the open.
func TestSessionConnPooling(t *testing.T) {
	p := proxiedServer(t)
	r, err := DialWith(context.Background(), p.Addr(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	idleLen := func() int {
		r.poolMu.Lock()
		defer r.poolMu.Unlock()
		return len(r.idle)
	}

	// A session takes a connection with its first verb, not at Open.
	openAndUse := func() Session {
		t.Helper()
		s, err := r.Open(ctx, "delta")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec(ctx, "SELECT * FROM flight"); err != nil {
			t.Fatal(err)
		}
		return s
	}

	s1 := openAndUse()
	firstConn := s1.(*remoteSession).conn
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if idleLen() != 1 {
		t.Fatalf("idle = %d after clean close, want 1", idleLen())
	}

	// The reused session must actually work.
	s2 := openAndUse()
	if s2.(*remoteSession).conn != firstConn {
		t.Fatal("open did not reuse the pooled connection")
	}
	if idleLen() != 0 {
		t.Fatalf("idle = %d while pooled conn in use, want 0", idleLen())
	}

	// One concurrent session more than the cap, all closed: the pool
	// keeps only maxIdleConns.
	open := []Session{s2}
	for len(open) <= maxIdleConns {
		open = append(open, openAndUse())
	}
	for _, s := range open {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if idleLen() != maxIdleConns {
		t.Fatalf("idle = %d, want capped at %d", idleLen(), maxIdleConns)
	}

	// Kill the pooled connections under the pool's feet: the next open
	// must discard them and dial fresh.
	p.Sever()
	time.Sleep(20 * time.Millisecond)
	s5, err := r.Open(ctx, "delta")
	if err != nil {
		t.Fatalf("open after severed pooled conns: %v", err)
	}
	if _, err := s5.Exec(ctx, "SELECT * FROM flight"); err != nil {
		t.Fatal(err)
	}
	s5.Close()
}

// TestPoolNeverReusesFailedConn checks a connection that carried a
// transport failure — whose server-side state is unknowable — is
// discarded on session close, not returned to the pool.
func TestPoolNeverReusesFailedConn(t *testing.T) {
	p := proxiedServer(t)
	r, err := DialWith(context.Background(), p.Addr(),
		DialOptions{CallTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()

	sess, err := r.Open(ctx, "delta")
	if err != nil {
		t.Fatal(err)
	}
	p.SetBlackhole(true)
	if _, err := sess.Exec(ctx, "SELECT * FROM flight"); err == nil {
		t.Fatal("exec on blackholed link succeeded")
	}
	p.SetBlackhole(false)
	sess.Close()
	r.poolMu.Lock()
	n := len(r.idle)
	r.poolMu.Unlock()
	if n != 0 {
		t.Fatalf("poisoned connection was pooled (idle = %d)", n)
	}
}

// TestCancelAfterReturnLeavesConnUsable cancels each call's context the
// moment the call returns, the way every deferred cancel does. The
// cancellation must not reach into the connection the call used: over
// many calls on one pooled connection, serving session after session,
// no call fails with a transient error.
func TestCancelAfterReturnLeavesConnUsable(t *testing.T) {
	srv := deltaServer(t)
	ts, err := Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	r, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	canceled := func(call func(ctx context.Context) error) error {
		ctx, cancel := context.WithCancel(bg)
		err := call(ctx)
		cancel()
		return err
	}
	for i := 0; i < 2000; i++ {
		sess, err := r.Open(bg, "delta")
		if err != nil {
			t.Fatal(err)
		}
		if err := canceled(func(ctx context.Context) error {
			_, err := sess.Exec(ctx, "SELECT rate FROM flight WHERE fnu = 10")
			return err
		}); err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if err := canceled(sess.Commit); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("close %d: %v", i, err)
		}
	}
}
