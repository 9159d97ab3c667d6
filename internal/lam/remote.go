package lam

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"msql/internal/ldbms"
	"msql/internal/obs"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
	"msql/internal/wire"
)

// ErrConnBroken marks calls issued on a connection already poisoned by an
// earlier transport failure (a torn gob stream cannot be resynchronized).
var ErrConnBroken = errors.New("lam: connection broken by earlier failure")

// OpError wraps a transport-level failure with the peer address, the
// operation kind, and the session it concerned, so a severed connection
// reports "lam continental (10.0.0.1:9001): exec: EOF" instead of a bare
// EOF.
type OpError struct {
	Service string
	Addr    string
	Op      wire.ReqKind
	Session int64
	Err     error
}

func (e *OpError) Error() string {
	svc := e.Service
	if svc == "" {
		svc = "?"
	}
	if e.Session != 0 {
		return fmt.Sprintf("lam %s (%s): %s [session %d]: %v", svc, e.Addr, e.Op, e.Session, e.Err)
	}
	return fmt.Sprintf("lam %s (%s): %s: %v", svc, e.Addr, e.Op, e.Err)
}

func (e *OpError) Unwrap() error { return e.Err }

// RetryPolicy bounds the exponential backoff used for transient
// control-plane failures. Data-plane calls inside an open transaction are
// never retried — their outcome at the server is unknown, and blind
// replays would corrupt the paper's Success/Aborted/Incorrect accounting.
type RetryPolicy struct {
	// Attempts is the number of retries after the first try.
	Attempts int
	// BaseDelay is the first backoff; each retry doubles it up to MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// DefaultRetry is the control-plane policy used when DialOptions leaves
// Retry zero-valued: 2 retries, 25ms base backoff capped at 250ms.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{Attempts: 2, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
}

// Backoff returns the sleep before retry attempt (1-based), with ±50%
// jitter so synchronized retry storms across parallel tasks decorrelate.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		d = 25 * time.Millisecond
	}
	for i := 1; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	half := d / 2
	if half > 0 {
		d = half + time.Duration(rand.Int63n(int64(d)))
	}
	return d
}

// sleep waits the backoff for the given attempt, returning early with the
// context error when the caller's deadline expires first.
func (p RetryPolicy) sleep(ctx context.Context, attempt int) error {
	t := time.NewTimer(p.Backoff(attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// DialOptions configure the TCP transport client.
type DialOptions struct {
	// CallTimeout bounds every RPC on the connection (0 = rely on the
	// caller's context deadline only). The effective per-call deadline is
	// the earlier of the context deadline and now+CallTimeout.
	CallTimeout time.Duration
	// DialTimeout bounds TCP connection establishment (default 5s).
	DialTimeout time.Duration
	// Retry is the transient-failure policy for control-plane calls
	// (profile, describe, list, open). Zero value means DefaultRetry.
	Retry RetryPolicy
}

// maxIdleConns caps the idle session connections a Remote keeps for
// reuse by Open. Pooling amortizes the TCP+gob handshake under session
// churn; a connection is only returned to the pool after a clean
// session close, so a conn that ever carried a transport failure —
// whose server-side state is unknowable — is discarded, preserving the
// conn-death ⇒ in-doubt 2PC semantics.
const maxIdleConns = 4

func (o DialOptions) withDefaults() DialOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.Retry == (RetryPolicy{}) {
		o.Retry = DefaultRetry()
	}
	return o
}

// Remote is the TCP transport client. Control operations share one base
// connection (redialed transparently after transient failures); every
// session gets its own connection so that parallel tasks in an evaluation
// plan do not serialize on a socket.
type Remote struct {
	addr    string
	service string
	opts    DialOptions

	// base is guarded by the rpcConn's own lock plus this one for swap.
	baseMu struct {
		ch chan *rpcConn // 1-buffered slot; nil element = needs redial
	}

	// pool holds idle session connections for reuse by Open.
	poolMu     sync.Mutex
	idle       []*rpcConn
	poolClosed bool
}

// rpcConn is one gob request/response channel. The 1-buffered semaphore
// serializes request/response exchanges — the stream carries one call at
// a time — while letting a caller whose context dies while waiting give
// up immediately instead of sitting behind a hung call for the peer's
// full timeout (a mutex would pin it there).
type rpcConn struct {
	sem     chan struct{}
	conn    net.Conn
	enc     *gob.Encoder
	dec     *gob.Decoder
	addr    string
	service string
	timeout time.Duration
	broken  error // guarded by sem
}

func dialConn(ctx context.Context, addr string, opts DialOptions) (*rpcConn, error) {
	d := net.Dialer{Timeout: opts.DialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rpcConn{
		sem:     make(chan struct{}, 1),
		conn:    conn,
		enc:     gob.NewEncoder(conn),
		dec:     gob.NewDecoder(conn),
		addr:    addr,
		timeout: opts.CallTimeout,
	}, nil
}

// call issues one request/response exchange, recording the round trip as
// a per-site latency observation and — when the context carries a trace —
// as a call span whose id propagates to the server in the request, so
// the LAM's server-side span correlates with this one.
func (c *rpcConn) call(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	op := req.Kind.String()
	if tr := obs.TraceFrom(ctx); tr != nil {
		sp := tr.StartSpan("call:"+op, obs.KindCall, obs.SpanFrom(ctx))
		sp.SetAttr("site", c.addr)
		req.TraceID = tr.ID()
		req.ParentSpan = uint64(sp.ID())
		start := time.Now()
		resp, err := c.exchange(ctx, req)
		c.noteCall(op, start, err)
		if resp != nil {
			sp.SetServerNS(resp.ServerNS)
		}
		sp.EndErr(err)
		return resp, err
	}
	start := time.Now()
	resp, err := c.exchange(ctx, req)
	c.noteCall(op, start, err)
	return resp, err
}

// noteCall records the latency and transient-failure metrics of one
// exchange.
func (c *rpcConn) noteCall(op string, start time.Time, err error) {
	mCallLatency.With(c.addr, op).ObserveSince(start)
	if err != nil && wire.Transient(err) {
		mTransientErrs.With(c.addr, op).Inc()
	}
}

// exchange performs the raw request/response round trip. The connection
// deadline is the earlier of the context deadline and the per-call
// timeout; a transport failure (timeout, severed connection, torn
// stream) poisons the connection and is wrapped in *OpError. Errors the
// server answered with are returned as-is — they are definite.
func (c *rpcConn) exchange(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		// Never started: the wire was not touched, so the outcome is
		// definite (nothing happened), not in-doubt.
		return nil, ctx.Err()
	}
	defer func() { <-c.sem }()
	if c.broken != nil {
		return nil, &OpError{Service: c.service, Addr: c.addr, Op: req.Kind, Session: req.SessionID,
			Err: fmt.Errorf("%w: %v", ErrConnBroken, c.broken)}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline := time.Time{}
	if c.timeout > 0 {
		deadline = time.Now().Add(c.timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	_ = c.conn.SetDeadline(deadline)
	// Propagate context cancellation into the blocking read/write.
	stop := make(chan struct{})
	defer close(stop)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				_ = c.conn.SetDeadline(time.Unix(1, 0))
			case <-stop:
			}
		}()
	}
	fail := func(err error) (*wire.Response, error) {
		c.broken = err
		_ = c.conn.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = fmt.Errorf("%w (%v)", ctxErr, err)
		} else if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			// The conn deadline derived from the context fired before the
			// context's own timer did; report the caller's deadline anyway.
			err = fmt.Errorf("%w (%v)", context.DeadlineExceeded, err)
		}
		return nil, &OpError{Service: c.service, Addr: c.addr, Op: req.Kind, Session: req.SessionID, Err: err}
	}
	if err := c.enc.Encode(req); err != nil {
		return fail(err)
	}
	var resp wire.Response
	if err := c.dec.Decode(&resp); err != nil {
		return fail(err)
	}
	_ = c.conn.SetDeadline(time.Time{})
	if err := resp.Err(); err != nil {
		return nil, err
	}
	return &resp, nil
}

func (c *rpcConn) close() error { return c.conn.Close() }

// idleAndHealthy reports whether the connection has no call in flight
// and no recorded transport failure, using a non-blocking semaphore
// probe so a hung in-flight call never blocks the check.
func (c *rpcConn) idleAndHealthy() bool {
	select {
	case c.sem <- struct{}{}:
		ok := c.broken == nil
		<-c.sem
		return ok
	default:
		return false
	}
}

// Dial connects to a LAM TCP server with default options.
func Dial(addr string) (*Remote, error) {
	return DialWith(context.Background(), addr, DialOptions{})
}

// DialWith connects to a LAM TCP server with explicit fault-tolerance
// options.
func DialWith(ctx context.Context, addr string, opts DialOptions) (*Remote, error) {
	r := &Remote{addr: addr, opts: opts.withDefaults()}
	r.baseMu.ch = make(chan *rpcConn, 1)
	r.baseMu.ch <- nil
	resp, err := r.control(ctx, &wire.Request{Kind: wire.ReqHello})
	if err != nil {
		return nil, err
	}
	r.service = resp.ServiceNm
	return r, nil
}

// acquireBase takes the base connection slot, redialing when it is absent
// or poisoned.
func (r *Remote) acquireBase(ctx context.Context) (*rpcConn, error) {
	var c *rpcConn
	select {
	case c = <-r.baseMu.ch:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	if c != nil && c.broken == nil {
		return c, nil
	}
	if c != nil {
		c.close()
	}
	nc, err := dialConn(ctx, r.addr, r.opts)
	if err != nil {
		r.baseMu.ch <- nil
		return nil, err
	}
	nc.service = r.service
	return nc, nil
}

func (r *Remote) releaseBase(c *rpcConn) { r.baseMu.ch <- c }

// control runs one control-plane request on the base connection, retrying
// transient failures (with redial) under the retry policy.
func (r *Remote) control(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	var last error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := r.opts.Retry.sleep(ctx, attempt); err != nil {
				return nil, last
			}
		}
		c, err := r.acquireBase(ctx)
		if err == nil {
			var resp *wire.Response
			resp, err = c.call(ctx, req)
			r.releaseBase(c)
			if err == nil {
				return resp, nil
			}
		}
		last = err
		if !wire.Transient(err) || attempt >= r.opts.Retry.Attempts {
			return nil, last
		}
		mRetries.With(r.addr).Inc()
	}
}

// ServiceName implements Client.
func (r *Remote) ServiceName() string { return r.service }

// Profile implements Client.
func (r *Remote) Profile(ctx context.Context) (ldbms.Profile, error) {
	resp, err := r.control(ctx, &wire.Request{Kind: wire.ReqProfile})
	if err != nil {
		return ldbms.Profile{}, err
	}
	return resp.Profile.ToProfile(), nil
}

// Open implements Client: it takes a pooled idle connection when one is
// available, else dials a dedicated connection for the session. The
// dial+open pair is retried as a unit on transient failures — no
// transaction state exists yet, so the replay is safe (an orphaned
// server-side session from a lost reply dies with its connection).
func (r *Remote) Open(ctx context.Context, db string) (Session, error) {
	// Pooled conns first. A pooled conn gone stale (server restarted,
	// idle timeout) just falls through to the dial path; stale pops do
	// not consume retry attempts.
	for {
		conn := r.popIdle()
		if conn == nil {
			break
		}
		resp, err := conn.call(ctx, &wire.Request{Kind: wire.ReqOpen, Database: db})
		if err == nil {
			mPoolReuse.With(r.addr).Inc()
			return &remoteSession{conn: conn, r: r, addr: r.addr, id: resp.SessionID, db: db}, nil
		}
		conn.close()
		if !wire.Transient(err) {
			return nil, err
		}
	}
	var last error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if err := r.opts.Retry.sleep(ctx, attempt); err != nil {
				return nil, last
			}
		}
		conn, err := dialConn(ctx, r.addr, r.opts)
		if err == nil {
			conn.service = r.service
			var resp *wire.Response
			resp, err = conn.call(ctx, &wire.Request{Kind: wire.ReqOpen, Database: db})
			if err == nil {
				return &remoteSession{conn: conn, r: r, addr: r.addr, id: resp.SessionID, db: db}, nil
			}
			conn.close()
		}
		last = err
		if !wire.Transient(err) || attempt >= r.opts.Retry.Attempts {
			return nil, last
		}
		mRetries.With(r.addr).Inc()
	}
}

// popIdle takes an idle pooled connection, newest first (most likely
// still alive), or nil when the pool is empty.
func (r *Remote) popIdle() *rpcConn {
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if n := len(r.idle); n > 0 {
		c := r.idle[n-1]
		r.idle = r.idle[:n-1]
		return c
	}
	return nil
}

// putIdle offers a healthy session connection back to the pool, closing
// it instead when the pool is full or the Remote is closed. Health is
// judged with a non-blocking probe of the call semaphore: a conn with a
// call still in flight (someone else may be mid-frame on it) or a
// recorded transport failure is never pooled.
func (r *Remote) putIdle(c *rpcConn) {
	if !c.idleAndHealthy() {
		c.close()
		return
	}
	r.poolMu.Lock()
	if r.poolClosed || len(r.idle) >= maxIdleConns {
		r.poolMu.Unlock()
		c.close()
		return
	}
	r.idle = append(r.idle, c)
	r.poolMu.Unlock()
}

// Describe implements Client.
func (r *Remote) Describe(ctx context.Context, db, name string) ([]schema.Column, error) {
	resp, err := r.control(ctx, &wire.Request{Kind: wire.ReqDescribe, Database: db, Name: name})
	if err != nil {
		return nil, err
	}
	return wire.ToColumns(resp.Columns), nil
}

// ListTables implements Client.
func (r *Remote) ListTables(ctx context.Context, db string) ([]string, error) {
	resp, err := r.control(ctx, &wire.Request{Kind: wire.ReqListTables, Database: db})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// ListViews implements Client.
func (r *Remote) ListViews(ctx context.Context, db string) ([]string, error) {
	resp, err := r.control(ctx, &wire.Request{Kind: wire.ReqListViews, Database: db})
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// Close implements Client.
func (r *Remote) Close() error {
	r.poolMu.Lock()
	r.poolClosed = true
	idle := r.idle
	r.idle = nil
	r.poolMu.Unlock()
	for _, c := range idle {
		c.close()
	}
	c := <-r.baseMu.ch
	r.baseMu.ch <- nil
	if c != nil {
		return c.close()
	}
	return nil
}

type remoteSession struct {
	conn *rpcConn
	r    *Remote // for returning conn to the pool; nil in recovery paths
	addr string
	id   int64
	db   string
}

func (s *remoteSession) call(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	req.SessionID = s.id
	return s.conn.call(ctx, req)
}

// RecoveryInfo implements Recoverable: the coordinator reconnects to addr
// and resolves the server-side session id.
func (s *remoteSession) RecoveryInfo() (string, int64) { return s.addr, s.id }

func (s *remoteSession) Exec(ctx context.Context, sql string) (*sqlengine.Result, error) {
	resp, err := s.call(ctx, &wire.Request{Kind: wire.ReqExec, SQL: sql})
	if err != nil {
		return nil, err
	}
	res := &sqlengine.Result{RowsAffected: resp.Result.RowsAffected, Rows: resp.Result.Rows, Plan: resp.Result.Plan}
	for _, c := range resp.Result.Columns {
		res.Columns = append(res.Columns, sqlengine.ResultCol{Name: c.Name, Type: sqlval.Kind(c.Type)})
	}
	return res, nil
}

func (s *remoteSession) Load(ctx context.Context, table string, rows [][]sqlval.Value) (int, error) {
	resp, err := s.call(ctx, &wire.Request{Kind: wire.ReqLoad, Name: table, Rows: rows})
	if err != nil {
		return 0, err
	}
	return resp.Result.RowsAffected, nil
}

func (s *remoteSession) Prepare(ctx context.Context) error {
	// The multitransaction id (when the coordinator journals) rides on the
	// prepare so the participant's journal can correlate with ours.
	_, err := s.call(ctx, &wire.Request{Kind: wire.ReqPrepare, MTID: MTIDFrom(ctx)})
	return err
}

func (s *remoteSession) Commit(ctx context.Context) error {
	_, err := s.call(ctx, &wire.Request{Kind: wire.ReqCommit})
	return err
}

func (s *remoteSession) Rollback(ctx context.Context) error {
	_, err := s.call(ctx, &wire.Request{Kind: wire.ReqRollback})
	return err
}

func (s *remoteSession) State(ctx context.Context) (ldbms.SessionState, error) {
	resp, err := s.call(ctx, &wire.Request{Kind: wire.ReqState})
	if err != nil {
		return 0, err
	}
	return ldbms.SessionState(resp.State), nil
}

func (s *remoteSession) Database() string { return s.db }

func (s *remoteSession) Close() error {
	_, err := s.call(context.Background(), &wire.Request{Kind: wire.ReqCloseSession})
	if err == nil && s.r != nil {
		s.r.putIdle(s.conn)
		return nil
	}
	cerr := s.conn.close()
	if err != nil {
		return err
	}
	return cerr
}
