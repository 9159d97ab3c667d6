package lam

import (
	"errors"
	"sync"
	"testing"
	"time"

	"msql/internal/netfault"
	"msql/internal/wire"
)

// breakerRemote dials the delta LAM through a fault proxy with a circuit
// breaker under pol and no control-call retries, so that each failed
// call is one failure. The call timeout leaves room for a trial the
// proxy holds back: a fresh connection's exchange is several delayed
// chunks.
func breakerRemote(t *testing.T, pol BreakerPolicy) (*Remote, *netfault.Proxy) {
	t.Helper()
	_, p := deltaProxy(t)
	r, err := DialWith(bg, p.Addr(), DialOptions{
		CallTimeout: 10 * time.Second,
		Retry:       RetryPolicy{Attempts: 0, BaseDelay: time.Millisecond},
		Breaker:     pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r, p
}

// siteDown makes every exchange through the proxy fail in transport at
// once: live connections are cut and new ones closed on accept.
func siteDown(p *netfault.Proxy) {
	p.SetRefuse(true)
	p.Sever()
}

// tripBreaker fails Profile calls against a downed site until the
// breaker opens, then brings the site back.
func tripBreaker(t *testing.T, r *Remote, p *netfault.Proxy) {
	t.Helper()
	siteDown(p)
	for i := 0; r.BreakerState() != BreakerOpen; i++ {
		if i == 10 {
			t.Fatalf("breaker still %s after %d failed calls", r.BreakerState(), i)
		}
		if _, err := r.Profile(bg); err == nil {
			t.Fatal("profile through a downed site succeeded")
		}
	}
	p.SetRefuse(false)
}

// warmSessions opens n sessions that have each run one statement, so
// their later requests are not first requests.
func warmSessions(t *testing.T, r *Remote, n int) []Session {
	t.Helper()
	var out []Session
	for i := 0; i < n; i++ {
		sess, err := r.Open(bg, "delta")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		if _, err := sess.Exec(bg, "SELECT fnu FROM flight"); err != nil {
			t.Fatal(err)
		}
		out = append(out, sess)
	}
	return out
}

func TestBreakerTripsAfterConsecutiveTransientFailures(t *testing.T) {
	r, p := breakerRemote(t, BreakerPolicy{Threshold: 3, Cooldown: time.Hour})
	siteDown(p)
	for i := 0; i < 3; i++ {
		if st := r.BreakerState(); st != BreakerClosed {
			t.Fatalf("state = %s after %d transient failures, want closed", st, i)
		}
		if _, err := r.Profile(bg); err == nil || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("profile %d: err = %v, want the site's own failure", i, err)
		}
	}
	if st := r.BreakerState(); st != BreakerOpen {
		t.Fatalf("state = %s after 3 transient failures, want open", st)
	}

	// The site is back, but an open breaker fast-fails without touching
	// the network: a control call, and a session's first request.
	p.SetRefuse(false)
	before := p.ClientReads()
	if _, err := r.Profile(bg); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("profile err = %v, want ErrBreakerOpen", err)
	}
	sess, err := r.Open(bg, "delta")
	if err != nil {
		t.Fatalf("open sends nothing, so it cannot fail: %v", err)
	}
	defer sess.Close()
	if _, err := sess.Exec(bg, "SELECT fnu FROM flight"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("first exec err = %v, want ErrBreakerOpen", err)
	}
	if n := p.ClientReads() - before; n != 0 {
		t.Fatalf("an open breaker let %d chunks reach the site", n)
	}
}

// TestBreakerPassesTerminationVerbs: the termination verbs are neither
// gated nor counted. Their failures do not trip a closed breaker, an
// open one still lets them through, and their successes do not close it.
// Forget sends nothing of its own (the acknowledgment rides the next
// request), so it succeeds either way.
func TestBreakerPassesTerminationVerbs(t *testing.T) {
	r, p := breakerRemote(t, BreakerPolicy{Threshold: 1, Cooldown: time.Hour})
	terminate := func() []error {
		if err := r.Forget(bg, 12345); err != nil {
			t.Fatalf("forget = %v, want it queued", err)
		}
		_, rerr := r.Resolve(bg, 12345, true)
		_, ierr := r.InDoubt(bg)
		return []error{rerr, ierr}
	}

	siteDown(p)
	for i, err := range terminate() {
		if err == nil {
			t.Fatalf("termination call %d through a downed site succeeded", i)
		}
	}
	if st := r.BreakerState(); st != BreakerClosed {
		t.Fatalf("state = %s: termination failures were counted", st)
	}

	tripBreaker(t, r, p)
	errs := terminate()
	if !errors.Is(errs[0], wire.ErrNoSession) {
		t.Fatalf("resolve through an open breaker: err = %v, want the server's ErrNoSession", errs[0])
	}
	for i, err := range errs[1:] {
		if err != nil {
			t.Fatalf("termination call %d through an open breaker: %v", i+1, err)
		}
	}
	if st := r.BreakerState(); st != BreakerOpen {
		t.Fatalf("state = %s: termination successes were counted", st)
	}
}

// TestDefiniteErrorsNeverTrip: a site that answers, albeit with an
// error, is alive.
func TestDefiniteErrorsNeverTrip(t *testing.T) {
	r, _ := breakerRemote(t, BreakerPolicy{Threshold: 2, Cooldown: time.Hour})
	for i := 0; i < 5; i++ {
		if _, err := r.Describe(bg, "delta", "nosuch"); err == nil {
			t.Fatal("describe of a missing table succeeded")
		}
		sess, err := r.Open(bg, "nosuchdb")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Exec(bg, "SELECT 1"); err == nil {
			t.Fatal("exec on a missing database succeeded")
		}
		sess.Close()
	}
	if st := r.BreakerState(); st != BreakerClosed {
		t.Fatalf("state = %s, want closed", st)
	}
}

func TestHalfOpenTrialClosesAndReopens(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	r, p := breakerRemote(t, BreakerPolicy{Threshold: 1, Cooldown: cooldown})
	tripBreaker(t, r, p)
	time.Sleep(cooldown + 20*time.Millisecond)
	if st := r.BreakerState(); st != BreakerHalfOpen {
		t.Fatalf("state = %s after cooldown, want half-open", st)
	}

	// A failed trial re-opens at once.
	siteDown(p)
	if _, err := r.Profile(bg); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("trial err = %v, want the site's own failure", err)
	}
	if st := r.BreakerState(); st != BreakerOpen {
		t.Fatalf("state = %s after a failed trial, want open", st)
	}

	// The next trial succeeds and closes it.
	p.SetRefuse(false)
	time.Sleep(cooldown + 20*time.Millisecond)
	if _, err := r.Profile(bg); err != nil {
		t.Fatalf("trial: %v", err)
	}
	if st := r.BreakerState(); st != BreakerClosed {
		t.Fatalf("state = %s after a successful trial, want closed", st)
	}
}

// TestSessionOpsAreNeverGatedButFeedTheBreaker: once a session has sent
// its first request, its requests keep reaching the network even as
// their failures trip the breaker — a 2PC participant cannot be
// abandoned by a breaker — while new sessions fast-fail.
func TestSessionOpsAreNeverGatedButFeedTheBreaker(t *testing.T) {
	r, p := breakerRemote(t, BreakerPolicy{Threshold: 2, Cooldown: time.Hour})
	sess := warmSessions(t, r, 3)
	siteDown(p)
	for i := 0; i < 2; i++ {
		if _, err := sess[i].Exec(bg, "SELECT fnu FROM flight"); err == nil || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("exec %d: err = %v, want the site's own failure", i, err)
		}
	}
	if st := r.BreakerState(); st != BreakerOpen {
		t.Fatalf("state = %s, want open from session-op failures", st)
	}
	if err := sess[2].Commit(bg); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("commit err = %v, want the site's own failure, not a gate", err)
	}
	p.SetRefuse(false)
	fresh, err := r.Open(bg, "delta")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.Exec(bg, "SELECT fnu FROM flight"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("new session's first exec: err = %v, want ErrBreakerOpen", err)
	}
}

// TestBreakerIgnoresRequestsABrokenConnectionRefused: a session's
// request refused by its connection, which an earlier transport failure
// broke, never reached the site and must not count as an answer from it:
// that would reset the failure count and keep a dark site's breaker
// closed.
func TestBreakerIgnoresRequestsABrokenConnectionRefused(t *testing.T) {
	r, p := breakerRemote(t, BreakerPolicy{Threshold: 2, Cooldown: time.Hour})
	sess := warmSessions(t, r, 1)[0]
	siteDown(p)
	for i := 0; i < 2; i++ {
		if _, err := sess.Exec(bg, "SELECT fnu FROM flight"); err == nil {
			t.Fatalf("exec %d through a downed site succeeded", i)
		}
	}
	if _, err := r.Profile(bg); err == nil {
		t.Fatal("profile through a downed site succeeded")
	}
	if st := r.BreakerState(); st != BreakerOpen {
		t.Fatalf("state = %s after two transport failures, want open", st)
	}
}

// TestBreakerRecordsLoadFailures: like every session op, Load is never
// gated by the breaker but feeds it.
func TestBreakerRecordsLoadFailures(t *testing.T) {
	r, p := breakerRemote(t, BreakerPolicy{Threshold: 2, Cooldown: time.Hour})
	sess := warmSessions(t, r, 3)
	siteDown(p)
	for i := 0; i < 2; i++ {
		if _, err := sess[i].Load(bg, "flight", fidelityRows()); err == nil || errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("load %d: err = %v, want the site's own failure", i, err)
		}
	}
	if st := r.BreakerState(); st != BreakerOpen {
		t.Fatalf("state = %s, want open from load failures", st)
	}
	if _, err := sess[2].Load(bg, "flight", fidelityRows()); errors.Is(err, ErrBreakerOpen) {
		t.Fatal("load was gated by an open breaker")
	}
}

// TestRemoteSessionsTripBreakerOnFirstRequest: a remote Open sends
// nothing, so it must not reach the breaker as a success. Sessions
// against a dark site each fail on their first request, and those
// failures alone trip it. Under the mutation "record a first request as
// a success before it is sent" every session resets the count and the
// breaker never trips; core's TestBreakerDegradesNonVitalSiteToPartialResults
// and the topology soak fail on it the same way.
func TestRemoteSessionsTripBreakerOnFirstRequest(t *testing.T) {
	_, p := deltaProxy(t)
	r, err := DialWith(bg, p.Addr(), DialOptions{
		CallTimeout: 100 * time.Millisecond,
		Retry:       RetryPolicy{Attempts: 0, BaseDelay: time.Millisecond},
		Breaker:     BreakerPolicy{Threshold: 2, Cooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	p.SetBlackhole(true)
	for i := 0; i < 2; i++ {
		sess, err := r.Open(bg, "delta")
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if _, err := sess.Exec(bg, "SELECT fnu FROM flight"); err == nil {
			t.Fatalf("exec %d through a black hole succeeded", i)
		}
		sess.Close()
	}
	if st := r.BreakerState(); st != BreakerOpen {
		t.Fatalf("state = %s after 2 failed first requests, want open", st)
	}
}

// TestHalfOpenTrialSession: a session's first request after the cooldown
// is the half-open trial. While it is in flight, other sessions' first
// requests go out beside it — a statement opens all its sessions before
// any of them sends — but control calls still fast-fail. A session that
// never sends takes no trial, and a failed trial re-opens the breaker.
func TestHalfOpenTrialSession(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	r, p := breakerRemote(t, BreakerPolicy{Threshold: 1, Cooldown: cooldown})
	open := func() Session {
		t.Helper()
		sess, err := r.Open(bg, "delta")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sess.Close() })
		return sess
	}

	tripBreaker(t, r, p)
	time.Sleep(cooldown + 20*time.Millisecond)
	open().Close() // sends nothing: no trial taken, none to hand back
	if st := r.BreakerState(); st != BreakerHalfOpen {
		t.Fatalf("state = %s after a session that sent nothing, want half-open", st)
	}

	// Hold the trial in the proxy, then send a second first request.
	trial, other := open(), open()
	p.SetDelay(150 * time.Millisecond)
	before := p.ClientReads()
	trialErr := make(chan error, 1)
	go func() {
		_, err := trial.Exec(bg, "SELECT fnu FROM flight")
		trialErr <- err
	}()
	for p.ClientReads() == before {
		time.Sleep(time.Millisecond)
	}
	if _, err := r.Profile(bg); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("profile during the trial: err = %v, want ErrBreakerOpen", err)
	}
	if _, err := other.Exec(bg, "SELECT fnu FROM flight"); err != nil {
		t.Fatalf("first request beside the trial: %v", err)
	}
	if err := <-trialErr; err != nil {
		t.Fatalf("trial: %v", err)
	}
	p.SetDelay(0)
	if st := r.BreakerState(); st != BreakerClosed {
		t.Fatalf("state = %s after the trial statement succeeded, want closed", st)
	}

	tripBreaker(t, r, p)
	time.Sleep(cooldown + 20*time.Millisecond)
	siteDown(p)
	if _, err := open().Exec(bg, "SELECT fnu FROM flight"); err == nil || errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("trial err = %v, want the site's own failure", err)
	}
	if _, err := open().Exec(bg, "SELECT fnu FROM flight"); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("first request after a failed trial: err = %v, want ErrBreakerOpen", err)
	}
}

// TestHalfOpenAdmitsSingleConcurrentProbe hammers a cooled-down open
// breaker with concurrent control calls: exactly one may pass as the
// half-open trial, every other caller fails fast with ErrBreakerOpen
// while the trial is still in flight, and the successful trial closes
// the breaker for everyone.
func TestHalfOpenAdmitsSingleConcurrentProbe(t *testing.T) {
	const cooldown = 50 * time.Millisecond
	r, p := breakerRemote(t, BreakerPolicy{Threshold: 1, Cooldown: cooldown})
	tripBreaker(t, r, p)
	time.Sleep(cooldown + 20*time.Millisecond)
	p.SetDelay(200 * time.Millisecond) // holds the trial in flight

	const callers = 16
	errCh := make(chan error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := r.Profile(bg)
			errCh <- err
		}()
	}
	for i := 0; i < callers-1; i++ {
		if err := <-errCh; !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("caller %d: err = %v, want ErrBreakerOpen while the trial is in flight", i, err)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatalf("trial: %v", err)
	}
	wg.Wait()
	if st := r.BreakerState(); st != BreakerClosed {
		t.Fatalf("state = %s after a successful trial, want closed", st)
	}
}
