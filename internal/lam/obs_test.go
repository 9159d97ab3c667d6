package lam

import (
	"context"
	"sync"
	"testing"
	"time"

	"msql/internal/obs"
)

// TestTraceIDPropagatesOverTCP drives a session over a real TCP wire
// round trip with a trace in the context and checks both sides: the
// client records call spans with the server's reported processing time,
// and the server — given its own tracer, as if in another process —
// records correlated serve spans under the same trace id, parented on
// the client span ids that rode in on the requests.
func TestTraceIDPropagatesOverTCP(t *testing.T) {
	srv := deltaServer(t)
	ts, err := Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	serverTr := obs.NewTracer(8)
	ts.SetTracer(serverTr)

	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	clientTr := obs.NewTracer(8)
	trace := clientTr.Start("stmt")
	ctx := obs.WithTrace(context.Background(), trace)

	sess, err := c.Open(ctx, "delta")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sess.Exec(ctx, "SELECT fnu FROM flight"); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	trace.Finish()

	snap := clientTr.ByID(trace.ID())
	if snap == nil {
		t.Fatal("client trace missing")
	}
	var calls []string
	callIDs := map[uint64]bool{}
	for _, s := range snap.Spans {
		if s.Kind != obs.KindCall {
			continue
		}
		calls = append(calls, s.Name)
		callIDs[s.ID] = true
		if s.Attrs["site"] != ts.Addr() {
			t.Fatalf("call span site = %q, want %q", s.Attrs["site"], ts.Addr())
		}
		if s.ServerNS < 0 {
			t.Fatalf("call span server time = %d", s.ServerNS)
		}
	}
	if len(calls) < 2 { // both execs (the open rides the first, close runs untraced)
		t.Fatalf("call spans = %v", calls)
	}

	// The server never saw the client's tracer, so it synthesized a
	// remote trace under the propagated id.
	ssnap := serverTr.ByID(trace.ID())
	if ssnap == nil {
		t.Fatalf("server recorded no trace for id %s", trace.ID())
	}
	if len(ssnap.Spans) != len(calls) {
		t.Fatalf("server spans = %d, client call spans = %d", len(ssnap.Spans), len(calls))
	}
	for _, s := range ssnap.Spans {
		if s.Kind != obs.KindServer || !s.Remote {
			t.Fatalf("server span = %+v", s)
		}
		if !callIDs[s.Parent] {
			t.Fatalf("server span parent %d is not a client call span id %v", s.Parent, callIDs)
		}
	}
}

// TestUntracedCallsCarryNoTraceID guards the inverse: without a trace in
// the context, requests carry no trace id and the server records nothing.
func TestUntracedCallsCarryNoTraceID(t *testing.T) {
	srv := deltaServer(t)
	ts, err := Serve("127.0.0.1:0", srv)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	serverTr := obs.NewTracer(8)
	ts.SetTracer(serverTr)

	c, err := Dial(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Profile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := serverTr.Recent(10); len(got) != 0 {
		t.Fatalf("server recorded %d traces for untraced calls", len(got))
	}
}

// TestBreakerOnTransitionCallback exercises the satellite hook: every
// state change of the automaton is delivered to the policy callback, in
// order, outside the breaker's lock (the callback re-enters the breaker).
func TestBreakerOnTransitionCallback(t *testing.T) {
	type hop struct{ from, to BreakerState }
	var mu sync.Mutex
	var hops []hop

	fc := &flakyClient{}
	var b *BreakerClient
	b = WithBreaker(fc, BreakerPolicy{
		Threshold: 2,
		Cooldown:  10 * time.Millisecond,
		OnTransition: func(service string, from, to BreakerState) {
			if service != "flaky" {
				t.Errorf("service = %q", service)
			}
			b.State() // must not deadlock: callback runs outside the lock
			mu.Lock()
			hops = append(hops, hop{from, to})
			mu.Unlock()
		},
	})

	ctx := context.Background()
	fc.setFailing(true, false)
	for i := 0; i < 2; i++ {
		b.Profile(ctx)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %s", b.State())
	}
	time.Sleep(15 * time.Millisecond) // cooldown elapses
	fc.setFailing(false, false)
	if _, err := b.Profile(ctx); err != nil { // half-open trial succeeds
		t.Fatal(err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %s", b.State())
	}

	mu.Lock()
	defer mu.Unlock()
	want := []hop{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
	}
	if len(hops) != len(want) {
		t.Fatalf("transitions = %v, want %v", hops, want)
	}
	for i := range want {
		if hops[i] != want[i] {
			t.Fatalf("transition %d = %v, want %v", i, hops[i], want[i])
		}
	}
}
