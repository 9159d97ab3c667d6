package lam

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"msql/internal/ldbms"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
	"msql/internal/wire"
)

// ErrBreakerOpen marks a call rejected without touching the network
// because the LAM's circuit breaker is open: the site has failed
// repeatedly and the breaker fast-fails new work until the cooldown
// elapses or a health probe sees the site recover. Callers (the DOL
// engine) treat it as a degraded-site signal, not an in-doubt one — no
// transaction work was started.
var ErrBreakerOpen = errors.New("lam: circuit breaker open")

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState uint8

// Breaker states.
const (
	// BreakerClosed: calls flow normally; transient failures count
	// toward the trip threshold.
	BreakerClosed BreakerState = iota
	// BreakerOpen: calls fast-fail with ErrBreakerOpen until the
	// cooldown elapses or a health probe succeeds.
	BreakerOpen
	// BreakerHalfOpen: one trial call is in flight; its outcome closes
	// or re-opens the breaker.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", uint8(s))
	}
}

// BreakerPolicy configures a per-LAM circuit breaker.
type BreakerPolicy struct {
	// Threshold is the number of consecutive transient failures that
	// trips the breaker (default 3). Definite, server-answered errors
	// never count: a site that answers is alive.
	Threshold int
	// Cooldown is how long the breaker stays open before the next call
	// is let through as a half-open trial (default 5s).
	Cooldown time.Duration
	// ProbeInterval, when positive, starts a background health probe
	// (the LAM's Profile op) while the breaker is open; a successful
	// probe closes the breaker before the cooldown expires.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each health probe (default 1s).
	ProbeTimeout time.Duration
	// OnTransition, when non-nil, is called after every breaker state
	// change with the service name and the states left and entered. It
	// runs outside the breaker's lock (calling back into the breaker is
	// safe) but on the goroutine that caused the transition, so it must
	// not block. Transitions are also always recorded as metrics
	// (msql_breaker_transitions_total, msql_breaker_state) whether or
	// not a callback is installed.
	OnTransition func(service string, from, to BreakerState)
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.Threshold <= 0 {
		p.Threshold = 3
	}
	if p.Cooldown <= 0 {
		p.Cooldown = 5 * time.Second
	}
	if p.ProbeTimeout <= 0 {
		p.ProbeTimeout = time.Second
	}
	return p
}

// BreakerClient wraps a Client with a circuit breaker. New sessions and
// control-plane calls are gated: when the breaker is open they fail
// immediately with ErrBreakerOpen instead of eating the full dial/retry
// budget. Operations on already-open sessions are never blocked — a 2PC
// participant mid-transaction cannot be abandoned by a breaker — but
// their transport failures feed the failure counter.
type BreakerClient struct {
	inner Client
	pol   BreakerPolicy

	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time
	trips    int
	probing  bool
	stopCh   chan struct{}
}

// WithBreaker wraps a client in a circuit breaker under the policy.
func WithBreaker(c Client, pol BreakerPolicy) *BreakerClient {
	return &BreakerClient{inner: c, pol: pol.withDefaults()}
}

// State reports the breaker's current state, accounting for an elapsed
// cooldown (an open breaker past its cooldown reports half-open).
func (b *BreakerClient) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && time.Since(b.openedAt) >= b.pol.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// Trips reports how many times the breaker has opened (for tests and
// operational counters).
func (b *BreakerClient) Trips() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// setStateLocked moves the automaton to a new state and returns the
// notification (metrics + OnTransition callback) to deliver once the
// caller drops b.mu, nil when the state did not change. Delivering
// outside the lock keeps callbacks free to call back into the breaker.
func (b *BreakerClient) setStateLocked(to BreakerState) func() {
	from := b.state
	if from == to {
		return nil
	}
	b.state = to
	svc := b.inner.ServiceName()
	cb := b.pol.OnTransition
	return func() {
		mBreakerTransitions.With(svc, to.String()).Inc()
		mBreakerState.With(svc).Set(int64(to))
		if cb != nil {
			cb(svc, from, to)
		}
	}
}

func notify(f func()) {
	if f != nil {
		f()
	}
}

// allow decides whether a gated call may proceed. In the open state it
// fails fast until the cooldown elapses, then admits a single trial
// (half-open).
func (b *BreakerClient) allow() error {
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return nil
	case BreakerOpen:
		if time.Since(b.openedAt) < b.pol.Cooldown {
			err := fmt.Errorf("%w: %s (cooldown %s)", ErrBreakerOpen, b.inner.ServiceName(), b.pol.Cooldown)
			b.mu.Unlock()
			return err
		}
		n := b.setStateLocked(BreakerHalfOpen)
		b.mu.Unlock()
		notify(n)
		return nil
	default: // BreakerHalfOpen: one trial at a time
		err := fmt.Errorf("%w: %s (trial in flight)", ErrBreakerOpen, b.inner.ServiceName())
		b.mu.Unlock()
		return err
	}
}

// record feeds one call outcome into the automaton.
func (b *BreakerClient) record(err error) {
	b.mu.Lock()
	var n func()
	if err == nil || !wire.Transient(err) {
		// Success, or a definite answer from the server: the site is
		// reachable. Close the breaker and reset the count.
		n = b.setStateLocked(BreakerClosed)
		b.fails = 0
		b.mu.Unlock()
		notify(n)
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= b.pol.Threshold {
		n = b.tripLocked()
	}
	b.mu.Unlock()
	notify(n)
}

// tripLocked opens the breaker and starts the health probe, returning
// the transition notification. Caller holds b.mu.
func (b *BreakerClient) tripLocked() func() {
	n := b.setStateLocked(BreakerOpen)
	b.openedAt = time.Now()
	b.trips++
	if b.pol.ProbeInterval > 0 && !b.probing {
		b.probing = true
		b.stopCh = make(chan struct{})
		go b.probeLoop(b.stopCh)
	}
	return n
}

// probeLoop pings the LAM's Profile op while the breaker is open; the
// first success closes the breaker early.
func (b *BreakerClient) probeLoop(stop chan struct{}) {
	t := time.NewTicker(b.pol.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		b.mu.Lock()
		open := b.state == BreakerOpen
		b.mu.Unlock()
		if !open {
			b.mu.Lock()
			b.probing = false
			b.mu.Unlock()
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), b.pol.ProbeTimeout)
		_, err := b.inner.Profile(ctx)
		cancel()
		if err == nil {
			b.mu.Lock()
			n := b.setStateLocked(BreakerClosed)
			b.fails = 0
			b.probing = false
			b.mu.Unlock()
			notify(n)
			return
		}
	}
}

// ServiceName implements Client.
func (b *BreakerClient) ServiceName() string { return b.inner.ServiceName() }

// Profile implements Client (gated).
func (b *BreakerClient) Profile(ctx context.Context) (ldbms.Profile, error) {
	if err := b.allow(); err != nil {
		return ldbms.Profile{}, err
	}
	p, err := b.inner.Profile(ctx)
	b.record(err)
	return p, err
}

// Open implements Client (gated): an open breaker rejects new sessions
// within one scheduling quantum instead of a full dial/retry budget.
func (b *BreakerClient) Open(ctx context.Context, db string) (Session, error) {
	if err := b.allow(); err != nil {
		return nil, err
	}
	s, err := b.inner.Open(ctx, db)
	b.record(err)
	if err != nil {
		return nil, err
	}
	return &breakerSession{Session: s, b: b}, nil
}

// Describe implements Client (gated).
func (b *BreakerClient) Describe(ctx context.Context, db, name string) ([]schema.Column, error) {
	if err := b.allow(); err != nil {
		return nil, err
	}
	cols, err := b.inner.Describe(ctx, db, name)
	b.record(err)
	return cols, err
}

// ListTables implements Client (gated).
func (b *BreakerClient) ListTables(ctx context.Context, db string) ([]string, error) {
	if err := b.allow(); err != nil {
		return nil, err
	}
	names, err := b.inner.ListTables(ctx, db)
	b.record(err)
	return names, err
}

// ListViews implements Client (gated).
func (b *BreakerClient) ListViews(ctx context.Context, db string) ([]string, error) {
	if err := b.allow(); err != nil {
		return nil, err
	}
	names, err := b.inner.ListViews(ctx, db)
	b.record(err)
	return names, err
}

// Close implements Client and stops the health probe.
func (b *BreakerClient) Close() error {
	b.mu.Lock()
	if b.stopCh != nil && b.probing {
		close(b.stopCh)
		b.probing = false
	}
	b.mu.Unlock()
	return b.inner.Close()
}

// breakerSession feeds session-op outcomes into the breaker without
// ever gating them: once a session exists, its 2PC protocol must be
// allowed to finish.
type breakerSession struct {
	Session
	b *BreakerClient
}

func (s *breakerSession) Exec(ctx context.Context, sql string) (*sqlengine.Result, error) {
	res, err := s.Session.Exec(ctx, sql)
	s.b.record(err)
	return res, err
}

func (s *breakerSession) Load(ctx context.Context, table string, rows [][]sqlval.Value) (int, error) {
	n, err := s.Session.Load(ctx, table, rows)
	s.b.record(err)
	return n, err
}

func (s *breakerSession) Prepare(ctx context.Context) error {
	err := s.Session.Prepare(ctx)
	s.b.record(err)
	return err
}

func (s *breakerSession) Commit(ctx context.Context) error {
	err := s.Session.Commit(ctx)
	s.b.record(err)
	return err
}

func (s *breakerSession) Rollback(ctx context.Context) error {
	err := s.Session.Rollback(ctx)
	s.b.record(err)
	return err
}

// RecoveryInfo exposes the wrapped session's in-doubt recovery handle.
func (s *breakerSession) RecoveryInfo() (string, int64) {
	if rec, ok := s.Session.(Recoverable); ok {
		return rec.RecoveryInfo()
	}
	return "", 0
}
