package lam

import (
	"context"
	"testing"
	"time"

	"msql/internal/ldbms"
	"msql/internal/netfault"
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

// TestBreakerTransitionMetrics walks a breaker through closed → open →
// half-open → closed and reads the registry at each step: one
// msql_breaker_transitions_total{to} increment per state entered, and
// msql_breaker_state at 0 closed / 1 open / 2 half-open.
func TestBreakerTransitionMetrics(t *testing.T) {
	const svc, cooldown = "breaker-metrics-svc", 50 * time.Millisecond
	ts, err := Serve("127.0.0.1:0", openSite(t, ldbms.Spec{Service: svc}))
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	p, err := netfault.New(ts.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	r, err := DialWith(bg, p.Addr(), DialOptions{
		Retry:   RetryPolicy{Attempts: 0, BaseDelay: time.Millisecond},
		Breaker: BreakerPolicy{Threshold: 2, Cooldown: cooldown},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	states := []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen}
	base := map[BreakerState]int64{}
	for _, st := range states {
		base[st] = mBreakerTransitions.With(svc, st.String()).Value()
	}
	check := func(step string, gauge BreakerState, entered ...BreakerState) {
		t.Helper()
		for _, st := range states {
			want := int64(0)
			for _, e := range entered {
				if e == st {
					want++
				}
			}
			if got := mBreakerTransitions.With(svc, st.String()).Value() - base[st]; got != want {
				t.Fatalf("%s: transitions{to=%s} rose by %d, want %d", step, st, got, want)
			}
		}
		if got := mBreakerState.With(svc).Value(); got != int64(gauge) {
			t.Fatalf("%s: msql_breaker_state = %d, want %d (%s)", step, got, gauge, gauge)
		}
	}

	siteDown(p)
	r.Profile(bg)
	check("one failure", BreakerClosed)
	r.Profile(bg)
	check("tripped", BreakerOpen, BreakerOpen)

	// Hold the half-open trial in the proxy to read the gauge under it.
	p.SetRefuse(false)
	time.Sleep(cooldown + 20*time.Millisecond)
	p.SetDelay(150 * time.Millisecond)
	before := p.ClientReads()
	trial := make(chan error, 1)
	go func() {
		_, err := r.Profile(bg)
		trial <- err
	}()
	for p.ClientReads() == before {
		time.Sleep(time.Millisecond)
	}
	check("trial in flight", BreakerHalfOpen, BreakerOpen, BreakerHalfOpen)
	if err := <-trial; err != nil {
		t.Fatalf("trial: %v", err)
	}
	check("trial succeeded", BreakerClosed, BreakerOpen, BreakerHalfOpen, BreakerClosed)
}
