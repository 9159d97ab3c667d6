package lam

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"msql/internal/netfault"
	"msql/internal/wire"
)

// committedTombstone commits a prepared session through a client of its
// own, leaving the server an outcome tombstone, and returns its id.
func committedTombstone(t *testing.T, addr string) int64 {
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
	if _, err := sess.Exec(bg, "UPDATE flight SET rate = rate + 1.0 WHERE fnu = 10"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Prepare(bg); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(bg); err != nil {
		t.Fatal(err)
	}
	return sess.(*remoteSession).id.Load()
}

// TestQueuedAckRidesNextRequest: Forget sends nothing; the site's next
// request, whatever its kind, carries the acknowledgment, and the
// server forgets the session before it serves that request — an attach
// of the very session it acknowledges finds nothing.
func TestQueuedAckRidesNextRequest(t *testing.T) {
	ts := durableServe(t, filepath.Join(t.TempDir(), "delta.journal"), ServeOptions{})
	r, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, tc := range []struct {
		kind string
		send func(id int64) error
	}{
		{"profile", func(int64) error { _, err := r.Profile(bg); return err }},
		{"in-doubt", func(int64) error { _, err := r.InDoubt(bg); return err }},
		{"session exec", func(int64) error {
			sess, err := r.Open(bg, "delta")
			if err != nil {
				return err
			}
			defer sess.Close()
			_, err = sess.Exec(bg, "SELECT fnu FROM flight")
			return err
		}},
		{"attach of the acknowledged session", func(id int64) error {
			if _, err := r.Resolve(bg, id, true); !errors.Is(err, wire.ErrNoSession) {
				t.Fatalf("resolve = %v, want ErrNoSession: the ack was applied after the attach", err)
			}
			return nil
		}},
	} {
		id := committedTombstone(t, ts.Addr())
		if err := r.Forget(bg, id); err != nil {
			t.Fatal(err)
		}
		if n := ts.Tombstones(); n != 1 {
			t.Fatalf("%s: %d tombstones after Forget, want 1: Forget sent a request", tc.kind, n)
		}
		if err := tc.send(id); err != nil {
			t.Fatalf("%s: %v", tc.kind, err)
		}
		if n := ts.Tombstones(); n != 0 {
			t.Fatalf("%s: %d tombstones after the next request, want 0", tc.kind, n)
		}
	}
}

// TestQueuedAckDroppedOnTransportFailure: a request that fails in
// transport takes its acknowledgments with it — the participant's
// tombstone TTL backs them up — so neither a later request nor Close
// sends them again.
func TestQueuedAckDroppedOnTransportFailure(t *testing.T) {
	ts := durableServe(t, filepath.Join(t.TempDir(), "delta.journal"), ServeOptions{})
	p, err := netfault.New(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r, err := DialWith(bg, p.Addr(), DialOptions{Retry: RetryPolicy{Attempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	id := committedTombstone(t, ts.Addr())
	if err := r.Forget(bg, id); err != nil {
		t.Fatal(err)
	}
	p.SetRefuse(true)
	p.Sever()
	if _, err := r.Profile(bg); err == nil || !wire.Transient(err) {
		t.Fatalf("profile through a refusing proxy = %v, want a transport failure", err)
	}
	p.SetRefuse(false)
	if _, err := r.Profile(bg); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if n := ts.Tombstones(); n != 1 {
		t.Fatalf("%d tombstones, want the dropped ack's 1", n)
	}
}

// TestCloseSendsQueuedAcks: acknowledgments still queued when the
// client closes go out as one forget request.
func TestCloseSendsQueuedAcks(t *testing.T) {
	ts := durableServe(t, filepath.Join(t.TempDir(), "delta.journal"), ServeOptions{})
	r, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Forget(bg, committedTombstone(t, ts.Addr())); err != nil {
			t.Fatal(err)
		}
	}
	if n := ts.Tombstones(); n != 3 {
		t.Fatalf("%d tombstones before Close, want 3", n)
	}
	before := mServerRequests.With(wire.ReqForget.String()).Value()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n := ts.Tombstones(); n != 0 {
		t.Fatalf("%d tombstones after Close, want 0", n)
	}
	if n := mServerRequests.With(wire.ReqForget.String()).Value() - before; n != 1 {
		t.Fatalf("Close sent %d forget requests, want 1", n)
	}
}

// TestConcurrentAcksAllArrive: acknowledgments queued from several
// goroutines while others send requests on the same client all reach
// the site: each rides some request or the closing forget.
func TestConcurrentAcksAllArrive(t *testing.T) {
	ts := durableServe(t, filepath.Join(t.TempDir(), "delta.journal"), ServeOptions{})
	const n = 8
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = committedTombstone(t, ts.Addr())
	}
	r, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			if err := r.Forget(bg, id); err != nil {
				t.Error(err)
				return
			}
			sess, err := r.Open(bg, "delta")
			if err != nil {
				t.Error(err)
				return
			}
			defer sess.Close()
			if _, err := sess.Exec(bg, "SELECT fnu FROM flight"); err != nil {
				t.Error(err)
			}
		}(ids[i])
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if n := ts.Tombstones(); n != 0 {
		t.Fatalf("%d tombstones after every ack was queued and the client closed, want 0", n)
	}
}
