package lam

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"msql/internal/wire"
)

// ErrBreakerOpen marks a request refused without touching the network
// because the site's circuit breaker is open: the site has failed
// repeatedly and the breaker fast-fails new work until the cooldown
// elapses. Callers (the DOL engine) treat it as a degraded-site signal,
// not an in-doubt one — no transaction work was started.
var ErrBreakerOpen = errors.New("lam: circuit breaker open")

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState uint8

// Breaker states.
const (
	// BreakerClosed: requests flow normally; transient failures count
	// toward the trip threshold.
	BreakerClosed BreakerState = iota
	// BreakerOpen: gated requests fast-fail with ErrBreakerOpen until
	// the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: one trial request is in flight; its outcome
	// closes or re-opens the breaker. While the trial is a session's
	// first request, other sessions' first requests go out beside it.
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

// BreakerPolicy configures a Remote's circuit breaker
// (DialOptions.Breaker).
type BreakerPolicy struct {
	// Threshold is the number of consecutive transient failures that
	// trips the breaker; 0 means no breaker. Definite, server-answered
	// errors never count: a site that answers is alive.
	Threshold int
	// Cooldown is how long the breaker stays open before the next gated
	// request is let through as a half-open trial (default 5s).
	Cooldown time.Duration
}

// breaker is the state of a Remote's circuit breaker. It gates control
// calls and a session's first request, the one that opens it at the
// server: when open they fail at once with ErrBreakerOpen instead of
// eating the full dial/retry budget. A session's later requests are
// never gated — a 2PC participant mid-transaction cannot be abandoned by
// a breaker — but their outcomes are counted like the gated ones. The
// termination verbs (Resolve, InDoubt, Forget) are neither gated nor
// counted: a prepared participant must get its decision whatever the
// breaker says.
type breaker struct {
	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time
	// firstTrial: the half-open trial is a session's first request, so
	// further first requests are admitted beside it — a statement opens
	// all its sessions before any of them sends.
	firstTrial bool
}

// BreakerState reports the state of the Remote's circuit breaker,
// accounting for an elapsed cooldown (an open breaker past its cooldown
// reports half-open). A Remote without a breaker is always closed.
func (r *Remote) BreakerState() BreakerState {
	b := &r.brk
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && time.Since(b.openedAt) >= r.opts.Breaker.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// admit decides whether a gated request may go out. An open breaker
// fails fast until the cooldown elapses, then admits one trial
// (half-open). first marks a session's first request.
func (r *Remote) admit(first bool) error {
	if r.opts.Breaker.Threshold <= 0 {
		return nil
	}
	b := &r.brk
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if time.Since(b.openedAt) < r.opts.Breaker.Cooldown {
			return fmt.Errorf("%w: %s (cooldown %s)", ErrBreakerOpen, r.service, r.opts.Breaker.Cooldown)
		}
		r.setBreakerState(BreakerHalfOpen)
		b.firstTrial = first
		return nil
	default: // BreakerHalfOpen: one trial at a time
		if first && b.firstTrial {
			return nil
		}
		return fmt.Errorf("%w: %s (trial in flight)", ErrBreakerOpen, r.service)
	}
}

// record feeds the outcome of one session or control exchange into the
// breaker.
func (r *Remote) record(err error) {
	if r.opts.Breaker.Threshold <= 0 || errors.Is(err, wire.ErrConnBroken) {
		// A request refused by a connection an earlier failure broke
		// never left: it says nothing of the site.
		return
	}
	b := &r.brk
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil || !wire.Transient(err) {
		// Success, or a definite answer from the server: the site is
		// reachable.
		b.fails = 0
		r.setBreakerState(BreakerClosed)
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= r.opts.Breaker.Threshold {
		r.setBreakerState(BreakerOpen)
		b.openedAt = time.Now()
	}
}

// setBreakerState moves the automaton and its metrics to a new state.
// Caller holds r.brk.mu.
func (r *Remote) setBreakerState(to BreakerState) {
	if r.brk.state == to {
		return
	}
	r.brk.state = to
	mBreakerTransitions.With(r.service, to.String()).Inc()
	mBreakerState.With(r.service).Set(int64(to))
}
