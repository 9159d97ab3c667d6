package lam

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"msql/internal/ldbms"
	"msql/internal/obs"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
	"msql/internal/wire"
)

// mtidKey carries the coordinator's multitransaction id in a context so
// the transport can stamp it onto prepare requests.
type mtidKey struct{}

// WithMTID returns a context carrying the coordinator's multitransaction
// id. Remote sessions propagate it on wire.ReqPrepare so the
// participant's journal can correlate its prepared records with the
// coordinator's journal.
func WithMTID(ctx context.Context, mtid uint64) context.Context {
	return context.WithValue(ctx, mtidKey{}, mtid)
}

// MTIDFrom extracts the multitransaction id from a context (zero when
// absent — an unjournaled coordinator).
func MTIDFrom(ctx context.Context) uint64 {
	if v, ok := ctx.Value(mtidKey{}).(uint64); ok {
		return v
	}
	return 0
}

// endingKey carries the ending of a DOL task's transaction in the
// context of the task's last Exec.
type endingKey struct{}

// WithEnding returns a context telling the session that the Exec it is
// passed to is its transaction's last statement, and how the
// transaction ends: wire.ReqCommit or wire.ReqPrepare. A remote session
// sends that ending in the exec's own request (wire.Request.Then) and
// answers the Commit or Prepare call that follows from the reply,
// without a round of its own. Any session may ignore the value: the
// caller still makes that call, and it then goes out as usual.
func WithEnding(ctx context.Context, end wire.ReqKind) context.Context {
	return context.WithValue(ctx, endingKey{}, end)
}

// EndingFrom returns the ending WithEnding put in the context, zero when
// the Exec is not its transaction's last statement.
func EndingFrom(ctx context.Context) wire.ReqKind {
	end, _ := ctx.Value(endingKey{}).(wire.ReqKind)
	return end
}

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
// control-plane failures and for dialing a session's connection. A
// session's requests are never retried once written — their outcome at
// the server is unknown, and blind replays would corrupt the paper's
// Success/Aborted/Incorrect accounting.
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
	// (hello, profile, describe, list, in-doubt, forget) and for dialing
	// the connection a session's first request goes out on. That request,
	// which also opens the session, is not retried once written. Zero
	// value means DefaultRetry.
	Retry RetryPolicy
	// Breaker is the site's circuit-breaker policy (zero: no breaker).
	Breaker BreakerPolicy
}

// maxIdleConns caps the idle connections a Remote keeps for reuse by
// later sessions and control calls. Pooling amortizes the TCP+gob
// handshake under session churn; a connection is only returned to the
// pool when it is healthy, so a conn that ever carried a transport
// failure — whose server-side state is unknowable — is discarded,
// preserving the conn-death ⇒ in-doubt 2PC semantics.
const maxIdleConns = 4

func (o DialOptions) withDefaults() DialOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.Retry == (RetryPolicy{}) {
		o.Retry = DefaultRetry()
	}
	if o.Breaker.Cooldown <= 0 {
		o.Breaker.Cooldown = 5 * time.Second
	}
	return o
}

// Remote is the TCP transport client. Every session gets its own
// connection, so that parallel tasks in an evaluation plan do not
// serialize on a socket; a control call borrows one for its exchange.
// Both take an idle pooled connection before they dial.
type Remote struct {
	addr    string
	service string
	opts    DialOptions

	// pool holds idle connections for reuse.
	poolMu     sync.Mutex
	idle       []*rpcConn
	poolClosed bool

	// acks are END acknowledgments (Forget) waiting for the next request
	// any connection sends the site (wire.Request.Forget).
	ackMu sync.Mutex
	acks  []int64

	brk breaker // see breaker.go
}

// rpcConn is a Remote's wire connection. The 1-buffered semaphore
// serializes request/response exchanges — the stream carries one call
// at a time — while letting a caller whose context dies while waiting
// give up immediately instead of sitting behind a hung call for the
// peer's full timeout (a mutex would pin it there).
type rpcConn struct {
	sem  chan struct{}
	conn *wire.Conn
	r    *Remote // for the site's address, name and call timeout
	// parked is a clean session close the connection's next request
	// carries (wire.Request.CloseFirst). Set while the connection is
	// idle, cleared by the exchange that sends it.
	parked int64
	// next is the id the server gives the next session opened on the
	// connection (wire.Response.NextSession), zero until an opening
	// reply has named it. Used by the session that holds the connection.
	next int64
}

// call issues one request/response exchange, recording the round trip as
// a per-site latency observation and — when the context carries a trace —
// as a call span whose id propagates to the server in the request, so
// the LAM's server-side span correlates with this one.
func (c *rpcConn) call(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	op := req.Op()
	if tr := obs.TraceFrom(ctx); tr != nil {
		sp := tr.StartSpan("call:"+op, obs.KindCall, obs.SpanFrom(ctx))
		sp.SetAttr("site", c.r.addr)
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
	mCallLatency.With(c.r.addr, op).ObserveSince(start)
	if err != nil && wire.Transient(err) {
		mTransientErrs.With(c.r.addr, op).Inc()
	}
}

// exchange performs one wire.Conn.Call under the semaphore, carrying a
// parked close and the site's queued acknowledgments. A transport
// failure is wrapped in *OpError and drops the acknowledgments: the
// participant's tombstone TTL backs them up. An error the server
// answered with is definite: it is returned as-is, together with the
// response carrying it.
func (c *rpcConn) exchange(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		// Never started: the wire was not touched, so the outcome is
		// definite (nothing happened), not in-doubt.
		return nil, ctx.Err()
	}
	defer func() { <-c.sem }()
	if c.parked != 0 {
		req.CloseFirst, c.parked = c.parked, 0
	}
	req.Forget = c.r.takeAcks()
	resp, err := c.conn.Call(ctx, req, c.r.opts.CallTimeout)
	if err != nil {
		if c.conn.Healthy() {
			// ctx was done before anything was sent: the close stays
			// parked, the acknowledgments queued, and the caller gets
			// ctx's error as it is.
			c.parked = req.CloseFirst
			c.r.requeueAcks(req.Forget)
			return nil, err
		}
		return nil, &OpError{Service: c.r.service, Addr: c.r.addr, Op: req.Kind, Session: req.SessionID, Err: err}
	}
	return resp, resp.Err()
}

func (c *rpcConn) close() error { return c.conn.Close() }

// idleAndHealthy reports whether the connection has no call in flight
// and no recorded transport failure, using a non-blocking semaphore
// probe so a hung in-flight call never blocks the check.
func (c *rpcConn) idleAndHealthy() bool {
	select {
	case c.sem <- struct{}{}:
		ok := c.conn.Healthy()
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
	resp, err := r.roundTrip(ctx, &wire.Request{Kind: wire.ReqHello})
	if err != nil {
		return nil, err
	}
	r.service = resp.ServiceNm
	return r, nil
}

// control runs one control-plane request behind the circuit breaker.
func (r *Remote) control(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if err := r.admit(false); err != nil {
		return nil, err
	}
	resp, err := r.roundTrip(ctx, req)
	r.record(err)
	return resp, err
}

// roundTrip runs one control-plane request on a connection of the
// pool's (see take), retrying transient failures under the retry policy.
func (r *Remote) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	var resp *wire.Response
	err := r.retrying(ctx, func() error {
		c, err := r.take(ctx)
		if err != nil {
			return err
		}
		resp, err = c.call(ctx, req)
		r.putIdle(c)
		return err
	})
	return resp, err
}

// retrying runs op until it succeeds, fails definitely, or the retry
// policy's attempts or the caller's deadline run out.
func (r *Remote) retrying(ctx context.Context, op func() error) error {
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || !wire.Transient(err) || attempt > r.opts.Retry.Attempts {
			return err
		}
		mRetries.With(r.addr).Inc()
		if r.opts.Retry.sleep(ctx, attempt) != nil {
			return err
		}
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

// Open implements Client without touching the network. The session's
// first request opens it at the server (wire.Request.Open), on a
// connection of the session's own — pooled or freshly dialed, see
// sessionConn — so an open failure (unreachable site, unknown database)
// surfaces on that first verb. The request is not retried once written.
func (r *Remote) Open(ctx context.Context, db string) (Session, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return r.newSession(db, nil, 0), nil
}

func (r *Remote) newSession(db string, conn *rpcConn, id int64) *remoteSession {
	s := &remoteSession{r: r, db: db, sem: make(chan struct{}, 1), conn: conn}
	s.id.Store(id)
	return s
}

// sessionConn finds the connection a session's first request goes out
// on (see take). Only the dial is retried under the policy, since
// nothing has been sent; a pooled connection found closed costs no
// attempt. op names the request in a dial failure.
func (r *Remote) sessionConn(ctx context.Context, op wire.ReqKind) (*rpcConn, error) {
	var c *rpcConn
	err := r.retrying(ctx, func() error {
		var err error
		c, err = r.take(ctx)
		return err
	})
	if err != nil {
		return nil, &OpError{Service: r.service, Addr: r.addr, Op: op, Err: err}
	}
	return c, nil
}

// take returns the newest pooled connection whose peer has not closed
// it, else a fresh dial.
func (r *Remote) take(ctx context.Context) (*rpcConn, error) {
	for c := r.popIdle(); c != nil; c = r.popIdle() {
		if c.conn.PeerOpen() {
			mPoolReuse.With(r.addr).Inc()
			return c, nil
		}
		c.close()
	}
	conn, err := wire.Dial(ctx, r.addr, r.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	return &rpcConn{sem: make(chan struct{}, 1), conn: conn, r: r}, nil
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

// putIdle offers a healthy connection back to the pool, closing
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
func (r *Remote) Describe(ctx context.Context, db, name string) (schema.Table, error) {
	resp, err := r.control(ctx, &wire.Request{Kind: wire.ReqDescribe, Database: db, Name: name})
	if err != nil {
		return schema.Table{}, err
	}
	return schema.Table{Columns: wire.ToColumns(resp.Columns), Rows: resp.TableRows}, nil
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

// Resolve implements Client: attach, decision and close travel on one
// session connection as a single attempt. A transport failure after the
// attach drops that connection, which hands the still-prepared session
// back to the server's in-doubt table for the next attempt. The breaker
// neither gates nor counts it.
func (r *Remote) Resolve(ctx context.Context, sessionID int64, commit bool) (ldbms.SessionState, error) {
	conn, err := r.sessionConn(ctx, wire.ReqAttach)
	if err != nil {
		return 0, err
	}
	resp, err := conn.call(ctx, &wire.Request{Kind: wire.ReqAttach, SessionID: sessionID})
	if err != nil {
		r.putIdle(conn)
		return 0, err
	}
	state := ldbms.SessionState(resp.State)
	if state == ldbms.StatePrepared {
		decision := wire.ReqRollback
		state = ldbms.StateAborted
		if commit {
			decision, state = wire.ReqCommit, ldbms.StateCommitted
		}
		if _, err := conn.call(ctx, &wire.Request{Kind: decision, SessionID: sessionID}); err != nil {
			conn.close()
			return 0, fmt.Errorf("lam: resolve session %d at %s: %w", sessionID, r.addr, err)
		}
	}
	// Release the attached session, now transaction-free; its outcome
	// tombstone stays on the server for a coordinator that retries after
	// a lost acknowledgment.
	_ = r.newSession("", conn, sessionID).Close()
	return state, nil
}

// InDoubt implements Client (wire.ReqInDoubt, a retried control call
// the breaker neither gates nor counts).
func (r *Remote) InDoubt(ctx context.Context) ([]wire.InDoubtSession, error) {
	resp, err := r.roundTrip(ctx, &wire.Request{Kind: wire.ReqInDoubt})
	if err != nil {
		return nil, err
	}
	return resp.InDoubt, nil
}

// Forget implements Client without touching the network: the
// acknowledgment is queued, and the next request any connection of the
// site sends carries it (wire.Request.Forget), so it never costs a round
// of its own. It never fails; a transport failure drops the queue, and
// the participant's tombstone TTL releases what it held. Close sends
// what is still queued.
func (r *Remote) Forget(_ context.Context, sessionID int64) error {
	r.ackMu.Lock()
	r.acks = append(r.acks, sessionID)
	r.ackMu.Unlock()
	return nil
}

// takeAcks empties the acknowledgment queue for a request to carry.
func (r *Remote) takeAcks() []int64 {
	r.ackMu.Lock()
	defer r.ackMu.Unlock()
	acks := r.acks
	r.acks = nil
	return acks
}

// requeueAcks puts back acknowledgments a request never sent.
func (r *Remote) requeueAcks(acks []int64) {
	if len(acks) == 0 {
		return
	}
	r.ackMu.Lock()
	r.acks = append(acks, r.acks...)
	r.ackMu.Unlock()
}

// Close implements Client. Acknowledgments still queued go out first,
// as one wire.ReqForget bounded by the dial timeout.
func (r *Remote) Close() error {
	r.ackMu.Lock()
	queued := len(r.acks) > 0
	r.ackMu.Unlock()
	if queued {
		ctx, cancel := context.WithTimeout(context.Background(), r.opts.DialTimeout)
		_, _ = r.roundTrip(ctx, &wire.Request{Kind: wire.ReqForget})
		cancel()
	}
	r.poolMu.Lock()
	r.poolClosed = true
	idle := r.idle
	r.idle = nil
	r.poolMu.Unlock()
	for _, c := range idle {
		c.close()
	}
	return nil
}

// remoteSession is a session whose server side exists from its first
// request on. sem serializes its calls; a caller whose context dies
// while waiting for it gives up at once.
type remoteSession struct {
	r   *Remote // for the connection pool
	db  string
	sem chan struct{}
	id  atomic.Int64 // the server's session id; 0 until a reply names one

	// Guarded by sem.
	conn   *rpcConn // nil until the first request
	txn    bool     // the server may hold a transaction for the session
	closed bool
	// ended is the ending the last exec carried (wire.Request.Then) and
	// endErr its outcome, kept for the Commit or Prepare call that
	// follows; any other call drops them.
	ended  wire.ReqKind
	endErr error
}

// call sends one request of the session. The first, gated by the
// circuit breaker, finds the session a connection and opens it at the
// server by carrying wire.Request.Open; the breaker counts the outcome of
// every exchange.
// No request is replayed once written: a transport failure poisons the connection
// and is returned as-is, since an exec at an autocommit site may already
// have taken effect. A free session is taken even when ctx is already
// done, so an ending the last exec carried is answered after the caller
// gave up: a vote the server stored must not read as a refusal.
func (s *remoteSession) call(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	select {
	case s.sem <- struct{}{}:
	default:
		select {
		case s.sem <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer func() { <-s.sem }()
	if s.closed {
		return nil, fmt.Errorf("%w: session closed", wire.ErrNoSession)
	}
	if ended := s.ended; ended != 0 {
		s.ended = 0
		if req.Kind == ended {
			return &wire.Response{}, s.endErr
		}
	}
	if s.conn == nil {
		if err := s.r.admit(true); err != nil {
			return nil, err
		}
		c, err := s.r.sessionConn(ctx, req.Kind)
		if err != nil {
			s.r.record(err)
			return nil, err
		}
		s.conn = c
	}
	opening := s.id.Load() == 0
	if opening {
		// The session takes the id the connection was told, so a lost
		// reply still leaves RecoveryInfo naming it.
		req.Open, req.Database = true, s.db
		s.id.Store(s.conn.next)
	} else {
		req.SessionID = s.id.Load()
	}
	if req.Then == wire.ReqPrepare && s.id.Load() == 0 {
		// A vote whose reply is lost must be resolvable by id: the
		// Prepare that follows goes out on its own instead.
		req.Then, req.MTID = 0, 0
	}
	resp, err := s.conn.call(ctx, req)
	s.r.record(err)
	if opening && resp != nil {
		s.id.Store(resp.SessionID)
		if resp.NextSession != 0 {
			s.conn.next = resp.NextSession
		}
	}
	switch req.Kind {
	case wire.ReqExec, wire.ReqLoad, wire.ReqPrepare:
		s.txn = true
	case wire.ReqCommit, wire.ReqRollback:
		if err == nil {
			s.txn = false
		}
	}
	if req.Then != 0 && err == nil {
		s.ended, s.endErr = req.Then, resp.ThenErr()
		if req.Then == wire.ReqCommit && s.endErr == nil {
			s.txn = false
		}
	}
	return resp, err
}

// RecoveryInfo implements Recoverable: the coordinator reconnects to addr
// and resolves the server-side session id.
func (s *remoteSession) RecoveryInfo() (string, int64) { return s.r.addr, s.id.Load() }

// Exec implements Session. The ending WithEnding put in ctx travels in
// the same request; the Commit or Prepare that follows a successful Exec
// returns its outcome. An Exec that fails ran no ending, unless it failed
// in transport: then the ending's outcome is as unknown as the
// statement's.
func (s *remoteSession) Exec(ctx context.Context, sql string) (*sqlengine.Result, error) {
	req := &wire.Request{Kind: wire.ReqExec, SQL: sql}
	switch end := EndingFrom(ctx); end {
	case wire.ReqCommit:
		req.Then = end
	case wire.ReqPrepare:
		req.Then, req.MTID = end, MTIDFrom(ctx)
	}
	resp, err := s.call(ctx, req)
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

func (s *remoteSession) Database() string { return s.db }

// Close implements Session. A session that never sent a request has
// nothing to close. A clean one — no transaction at the server — sends
// nothing either: its connection returns to the pool carrying the close
// for its next request (wire.Request.CloseFirst), and a connection the
// pool drops instead takes the session with it at the server. A session
// that may hold a transaction closes in an exchange of its own.
func (s *remoteSession) Close() error {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	conn := s.conn
	s.conn, s.closed = nil, true
	if conn == nil {
		return nil
	}
	switch id := s.id.Load(); {
	case id == 0: // the server never opened it
	case s.txn:
		if _, err := conn.call(context.Background(), &wire.Request{Kind: wire.ReqCloseSession, SessionID: id}); err != nil {
			conn.close()
			return err
		}
	default:
		conn.parked = id
	}
	s.r.putIdle(conn)
	return nil
}
