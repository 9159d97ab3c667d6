package dolengine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"msql/internal/dol"
	"msql/internal/ldbms"
	"msql/internal/obs"
	"msql/internal/wire"
)

// Branch is one remote participant as the termination rounds see it: the
// Directory key of its site, its server-side session, and the decision
// to deliver.
type Branch struct {
	Site      string
	SessionID int64
	Commit    bool
}

// ackTimeout bounds each end-of-multitransaction acknowledgment.
const ackTimeout = 2 * time.Second

// ResolveParticipant is the termination protocol for one in-doubt
// participant: the client the Directory holds under site re-attaches the
// session and delivers the decision (lam.Client.Resolve), paced by the
// engine's Recovery policy, each attempt bounded by RecoverTimeout.
// Transient failures — a refused dial while the participant restarts
// among them — are retried. wire.ErrNoSession is an answer, not a
// failure: a participant with no record of the session either never
// voted or was acknowledged and allowed to forget, so the decision
// (presumed abort when it is rollback) is the outcome.
func (e *Engine) ResolveParticipant(ctx context.Context, site string, sessionID int64, commit bool) (ldbms.SessionState, error) {
	var last error
	for attempt := 0; attempt <= e.Recovery.Attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(e.Recovery.Backoff(attempt)):
			}
		}
		cctx, cancel := context.WithTimeout(ctx, e.RecoverTimeout)
		c, err := e.dir.ResolveContext(cctx, site)
		var st ldbms.SessionState
		if err == nil {
			st, err = c.Resolve(cctx, sessionID, commit)
		}
		cancel()
		if err == nil {
			return st, nil
		}
		if errors.Is(err, wire.ErrNoSession) {
			if commit {
				return ldbms.StateCommitted, nil
			}
			return ldbms.StateAborted, nil
		}
		if !wire.Transient(err) {
			return 0, err
		}
		last = err
	}
	return 0, last
}

// ResolveAll drives every branch to its decision with ResolveParticipant,
// concurrently, and returns each one's terminal state or error by index.
func (e *Engine) ResolveAll(ctx context.Context, bs []Branch) ([]ldbms.SessionState, []error) {
	states, errs := make([]ldbms.SessionState, len(bs)), make([]error, len(bs))
	fanOut(len(bs), func(i int) {
		states[i], errs[i] = e.ResolveParticipant(ctx, bs[i].Site, bs[i].SessionID, bs[i].Commit)
	})
	return states, errs
}

// Forget tells every distinct branch (Commit unset: an acknowledgment
// carries no decision) that its multitransaction is fully terminal
// (lam.Client.Forget), releasing its tombstone and letting its journal
// compact. Failures are ignored: the acknowledgment only lets the
// participant reclaim state early, and its tombstone TTL is the backstop.
// The round sits inside the client-observed latency of a 2PC unit, so the
// acknowledgments go out concurrently.
func (e *Engine) Forget(bs []Branch) {
	seen := make(map[Branch]bool, len(bs))
	var todo []Branch
	for _, b := range bs {
		if b.Site != "" && !seen[b] {
			seen[b] = true
			todo = append(todo, b)
		}
	}
	fanOut(len(todo), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), ackTimeout)
		defer cancel()
		c, err := e.dir.ResolveContext(ctx, todo[i].Site)
		if err != nil {
			return
		}
		_ = c.Forget(ctx, todo[i].SessionID)
	})
}

// SweepOrphans terminates from the participants' side: each site is asked
// for its in-doubt sessions (lam.Client.InDoubt), and every one covered
// does not hold is rolled back and acknowledged. It returns the swept
// branches; a site that stayed unreachable contributes the error (the
// last one), and a later sweep retries it.
func (e *Engine) SweepOrphans(ctx context.Context, sites []string, covered map[Branch]bool) ([]Branch, error) {
	var (
		mu      sync.Mutex
		swept   []Branch
		lastErr error
	)
	fanOut(len(sites), func(i int) {
		cctx, cancel := context.WithTimeout(ctx, e.RecoverTimeout)
		c, err := e.dir.ResolveContext(cctx, sites[i])
		var parked []wire.InDoubtSession
		if err == nil {
			parked, err = c.InDoubt(cctx)
		}
		cancel()
		var rolledBack []Branch
		for _, d := range parked {
			b := Branch{Site: sites[i], SessionID: d.SessionID}
			if covered[b] {
				continue
			}
			if _, rerr := e.ResolveParticipant(ctx, b.Site, b.SessionID, false); rerr != nil {
				err = rerr
				continue
			}
			rolledBack = append(rolledBack, b)
		}
		mu.Lock()
		swept = append(swept, rolledBack...)
		if err != nil {
			lastErr = err
		}
		mu.Unlock()
	})
	e.Forget(swept)
	return swept, lastErr
}

// recoverInDoubt is the coordinator's bounded recovery loop: each
// in-doubt participant is driven to its recorded decision through the
// client its task connected through. It runs once every task has
// settled. Delivering decisions for prepared transactions must be
// attempted even when the plan's deadline has expired, so the loop runs
// on a fresh context, bounded by the engine's Recovery policy and
// RecoverTimeout instead.
func (r *run) recoverInDoubt() {
	var (
		rts   []*taskRT
		bs    []Branch
		spans []*obs.Span
	)
	for name, rt := range r.tasks {
		if rt.info.Status == dol.StatusInDoubt && rt.recoverable {
			rts = append(rts, rt)
			bs = append(bs, Branch{Site: r.conns[rt.stmt.Conn].site, SessionID: rt.recoverID, Commit: rt.recoverCommit})
			sp, _ := obs.StartSpan(r.ctx, "resolve:"+name, obs.KindRecovery)
			sp.SetAttr("site", rt.recoverAddr)
			spans = append(spans, sp)
		}
	}
	states, errs := r.eng.ResolveAll(context.Background(), bs)
	for i, rt := range rts {
		if errs[i] != nil {
			mInDoubtUnresolved.Inc()
			spans[i].EndErr(fmt.Errorf("dolengine: participant unreachable"))
			r.out.Unresolved = append(r.out.Unresolved, InDoubt{Task: rt.stmt.Name, Conn: rt.info.Conn,
				Database: rt.info.Database, Addr: rt.recoverAddr, SessionID: rt.recoverID, Commit: rt.recoverCommit})
			continue
		}
		if states[i] == ldbms.StateCommitted {
			rt.setStatus(dol.StatusCommitted, nil)
		} else {
			rt.setStatus(dol.StatusAborted, nil)
		}
		r.logOutcome(rt)
		if !rt.inDoubtAt.IsZero() {
			mInDoubtDwell.ObserveSince(rt.inDoubtAt)
		}
		spans[i].End()
	}
}
