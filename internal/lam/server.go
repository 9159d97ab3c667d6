package lam

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/obs"
	"msql/internal/wire"
)

// TCPServer serves a local DBMS over the wire protocol. Each accepted
// connection runs its own request loop with its own session table, so one
// remote client session maps to one connection and parallel tasks do not
// serialize on a shared socket.
//
// Session ids are allocated server-wide, and a session that votes
// PREPARED enters the server-wide prepared table until it reaches an
// outcome. A recovering coordinator re-binds such a session by id with
// wire.ReqAttach, taking it over from whichever connection owns it, to
// drive it to commit or rollback; when the owning connection dies first
// (the in-doubt window of §3.2.2) the session stays in the table
// ownerless rather than being rolled back. Sessions that reached an
// outcome after having been prepared leave a tombstone so a coordinator
// whose commit acknowledgment was lost still learns the definite result.
//
// With a participant journal (ServeOptions.Journal) the prepared state
// itself is durable: the vote does not go on the wire before the
// session's redo statements are on stable storage, a restarted server
// re-materializes its in-doubt sessions from the journal, and outcome
// tombstones survive the process. Tombstones are released by coordinator
// acknowledgment (wire.ReqForget) or by TTL, whichever comes first, so
// neither the map nor the journal grows without bound.
type TCPServer struct {
	srv     *ldbms.Server
	ln      net.Listener
	journal *mtlog.ParticipantJournal
	opts    ServeOptions

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	sessMu    sync.Mutex
	nextID    int64
	prepared  map[int64]*servedSession // voted, no outcome yet
	tombstone map[int64]tombstone
	acks      int // ReqForget/TTL evictions since the last compaction

	janitorStop chan struct{}
	janitorDone chan struct{}

	errMu    sync.Mutex
	connErrs []error // non-benign connection errors (see ConnErrors)

	obsMu  sync.Mutex
	tracer *obs.Tracer // nil = obs.DefaultTracer
}

// servedSession is one LDBMS session and the connection serving it.
type servedSession struct {
	sess *ldbms.Session
	// owner is the connection whose handler closes the session when it
	// exits; wire.ReqAttach moves it. Nil marks a prepared session whose
	// connection died (or that a restart re-materialized from the
	// participant journal): in doubt, awaiting a coordinator decision.
	// Guarded by TCPServer.sessMu.
	owner *connState
	// mtid is the coordinator multitransaction id the prepare carried
	// (zero for unjournaled coordinators), reported by ReqInDoubt so a
	// recovering coordinator can match the session against its journal.
	// Guarded by TCPServer.sessMu.
	mtid uint64
}

// tombstone is the recorded terminal state of a once-prepared session,
// kept until the coordinator acknowledges it (wire.ReqForget) or the
// TTL expires.
type tombstone struct {
	state ldbms.SessionState
	at    time.Time
}

// ServeOptions configure participant durability.
type ServeOptions struct {
	// Journal, when non-nil, makes prepared-session state durable: votes
	// are journaled (and fsynced) before they return on the wire, and a
	// server restarted on the same journal re-materializes its in-doubt
	// sessions. The server owns the journal from ServeWith on and closes
	// it in Close.
	Journal *mtlog.ParticipantJournal
	// TombstoneTTL bounds how long an unacknowledged outcome tombstone is
	// retained. Zero keeps tombstones until a coordinator ReqForget (or
	// server close). Under presumed abort an evicted tombstone is safe:
	// an asker finding no session is answered ErrNoSession and concludes
	// abort unless its own journal says commit.
	TombstoneTTL time.Duration
	// CompactEvery triggers journal compaction after that many
	// acknowledgments (ReqForget or TTL eviction). Zero means a default
	// of 16; compaction only runs when a journal is configured.
	CompactEvery int
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.CompactEvery <= 0 {
		o.CompactEvery = 16
	}
	return o
}

// SetTracer directs this server's request spans to tr instead of the
// process-wide obs.DefaultTracer (used by tests and embedders running
// several servers in one process).
func (t *TCPServer) SetTracer(tr *obs.Tracer) {
	t.obsMu.Lock()
	t.tracer = tr
	t.obsMu.Unlock()
}

func (t *TCPServer) obsTracer() *obs.Tracer {
	t.obsMu.Lock()
	defer t.obsMu.Unlock()
	if t.tracer != nil {
		return t.tracer
	}
	return obs.DefaultTracer
}

// Serve starts serving srv on a fresh listener at addr (use "127.0.0.1:0"
// for an ephemeral port) and returns immediately. The server is not
// durable; use ServeWith to journal prepared-session state.
func Serve(addr string, srv *ldbms.Server) (*TCPServer, error) {
	return ServeWith(addr, srv, ServeOptions{})
}

// ServeWith starts serving srv at addr with participant durability
// options. When opts.Journal is set, the journal is replayed before the
// listener accepts its first connection: in-doubt sessions are
// re-materialized in a recovering-prepared state (re-executing their
// journaled redo statements and re-preparing), committed-but-unacked
// sessions have their effects re-applied and leave tombstones, and
// acknowledged sessions are dropped. A replay failure fails the start —
// a participant that cannot re-establish its votes must not open for
// business.
func ServeWith(addr string, srv *ldbms.Server, opts ServeOptions) (*TCPServer, error) {
	t := &TCPServer{
		srv:       srv,
		journal:   opts.Journal,
		opts:      opts.withDefaults(),
		conns:     make(map[net.Conn]struct{}),
		prepared:  make(map[int64]*servedSession),
		tombstone: make(map[int64]tombstone),
	}
	if t.journal != nil {
		if err := t.replay(); err != nil {
			return nil, fmt.Errorf("lam: journal replay: %w", err)
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t.ln = ln
	if t.opts.TombstoneTTL > 0 {
		t.janitorStop = make(chan struct{})
		t.janitorDone = make(chan struct{})
		go t.janitor()
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// replay folds the participant journal back into server state; see
// ServeWith. It runs before the listener exists, so no locking is
// needed beyond what the ldbms sessions do themselves.
func (t *TCPServer) replay() error {
	sessions, err := t.journal.Sessions()
	if err != nil {
		return err
	}
	now := time.Now()
	for _, ps := range sessions {
		if ps.SID > t.nextID {
			// Never reissue a journaled session id: tombstones and prepared
			// sessions are keyed by it.
			t.nextID = ps.SID
		}
		if ps.Acked {
			continue
		}
		switch ps.State {
		case 0: // still prepared: the in-doubt window spans the restart
			s, err := t.replaySession(ps)
			if err != nil {
				return err
			}
			if err := s.Prepare(); err != nil {
				s.Close()
				return fmt.Errorf("session %d: re-prepare: %w", ps.SID, err)
			}
			t.prepared[ps.SID] = &servedSession{sess: s, mtid: ps.MTID}
			// A later prepared round supersedes an earlier committed round's
			// tombstone for the same id (multi-sync-point programs).
			delete(t.tombstone, ps.SID)
			mReplayed.With(t.srv.Name(), "prepared").Inc()
		case mtlog.StatusCommitted:
			// The decision arrived and committed, but the coordinator never
			// acknowledged: the effects must exist after the restart, and
			// the tombstone must keep answering a retrying coordinator.
			s, err := t.replaySession(ps)
			if err != nil {
				return err
			}
			if err := s.Commit(); err != nil {
				s.Close()
				return fmt.Errorf("session %d: re-commit: %w", ps.SID, err)
			}
			s.Close()
			t.tombstone[ps.SID] = tombstone{state: ldbms.StateCommitted, at: now}
			mReplayed.With(t.srv.Name(), "committed").Inc()
		case mtlog.StatusAborted:
			// Presumed abort: no effects to re-apply, only the answer.
			t.tombstone[ps.SID] = tombstone{state: ldbms.StateAborted, at: now}
			mReplayed.With(t.srv.Name(), "aborted").Inc()
		}
	}
	t.publishGauges()
	return nil
}

// replaySession opens a session on the journaled database and re-executes
// the redo statements in their original order.
func (t *TCPServer) replaySession(ps *mtlog.PSession) (*ldbms.Session, error) {
	s, err := t.srv.OpenSession(ps.DB)
	if err != nil {
		return nil, fmt.Errorf("session %d: open %s: %w", ps.SID, ps.DB, err)
	}
	for _, q := range ps.Redo {
		if _, err := s.Exec(q); err != nil {
			s.Close()
			return nil, fmt.Errorf("session %d: redo %q: %w", ps.SID, q, err)
		}
	}
	return s, nil
}

// janitor evicts outcome tombstones older than the TTL, standing in for
// coordinator acknowledgments that never arrived.
func (t *TCPServer) janitor() {
	defer close(t.janitorDone)
	period := t.opts.TombstoneTTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-t.janitorStop:
			return
		case <-tick.C:
			cutoff := time.Now().Add(-t.opts.TombstoneTTL)
			t.sessMu.Lock()
			var expired []int64
			for id, tb := range t.tombstone {
				if tb.at.Before(cutoff) {
					expired = append(expired, id)
					delete(t.tombstone, id)
				}
			}
			t.publishGaugesLocked()
			t.sessMu.Unlock()
			for _, id := range expired {
				t.ack(id)
			}
		}
	}
}

// Addr returns the listen address.
func (t *TCPServer) Addr() string { return t.ln.Addr().String() }

// Close stops the listener and all connections. Without a journal,
// in-doubt sessions are rolled back — the shutdown aborts
// unresolved participants — and their outcome recorded. With a journal
// they are left journaled: the next ServeWith on the same journal
// re-materializes them, which is the difference between a crash and an
// amnesiac restart.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	t.closed = true
	err := t.ln.Close()
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	if t.janitorStop != nil {
		close(t.janitorStop)
		<-t.janitorDone
	}
	t.sessMu.Lock()
	if t.journal == nil {
		for id, p := range t.prepared {
			p.sess.Close()
			t.tombstone[id] = tombstone{state: p.sess.State(), at: time.Now()}
			delete(t.prepared, id)
		}
	}
	t.publishGaugesLocked()
	t.sessMu.Unlock()
	if t.journal != nil {
		if jerr := t.journal.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

// InDoubt reports the ids of prepared sessions awaiting a coordinator
// decision (for tests and operational inspection).
func (t *TCPServer) InDoubt() []int64 {
	sessions := t.inDoubtSessions()
	ids := make([]int64, len(sessions))
	for i, s := range sessions {
		ids[i] = s.SessionID
	}
	return ids
}

// Tombstones reports how many unacknowledged outcome tombstones the
// server currently retains (for tests and operational inspection).
func (t *TCPServer) Tombstones() int {
	t.sessMu.Lock()
	defer t.sessMu.Unlock()
	return len(t.tombstone)
}

func (t *TCPServer) allocID() int64 {
	t.sessMu.Lock()
	defer t.sessMu.Unlock()
	t.nextID++
	return t.nextID
}

// voted enters a session into the prepared table once its vote is on
// stable storage: from here until an outcome, attach finds it.
func (t *TCPServer) voted(id int64, ss *servedSession, mtid uint64) {
	t.sessMu.Lock()
	ss.mtid = mtid
	t.prepared[id] = ss
	t.sessMu.Unlock()
}

// attach re-binds a prepared session to cs, taking it from the
// connection that owns it (if any); when the session already reached an
// outcome it returns the recorded terminal state instead. The previous
// owner may still be alive — its client gave up on it, its handler has
// not noticed yet — and skips the session when it exits.
func (t *TCPServer) attach(id int64, cs *connState) (*servedSession, ldbms.SessionState, bool) {
	t.sessMu.Lock()
	ss, live := t.prepared[id]
	if live {
		ss.owner = cs
		t.publishGaugesLocked()
	}
	tb, dead := t.tombstone[id]
	t.sessMu.Unlock()
	switch {
	case live:
		// Read outside sessMu: the previous owner may be mid-call on the
		// session, holding its lock for an fsync.
		return ss, ss.sess.State(), true
	case dead:
		return nil, tb.state, true
	}
	return nil, 0, false
}

// release ends cs's service of a session when the connection dies. A
// session still prepared is in doubt: it stays in the prepared table,
// ownerless, for coordinator recovery instead of being rolled back.
// Anything else dies with the connection, leaving an outcome tombstone
// when the session had voted (its fate matters to a coordinator). A
// session attach has moved to another connection is not cs's to touch.
func (t *TCPServer) release(id int64, ss *servedSession, cs *connState) {
	prepared := ss.sess.State() == ldbms.StatePrepared
	t.sessMu.Lock()
	mine := ss.owner == cs
	if mine && prepared {
		ss.owner = nil
		t.publishGaugesLocked()
	}
	t.sessMu.Unlock()
	if mine && !prepared {
		ss.sess.Close()
		t.settle(id, ss, cs, ss.sess.State())
	}
}

// inDoubtLocked snapshots the prepared sessions no live connection
// owns. Caller holds sessMu.
func (t *TCPServer) inDoubtLocked() []wire.InDoubtSession {
	out := make([]wire.InDoubtSession, 0, len(t.prepared))
	for id, ss := range t.prepared {
		if ss.owner == nil {
			out = append(out, wire.InDoubtSession{SessionID: id, MTID: ss.mtid})
		}
	}
	return out
}

// inDoubtSessions is the ReqInDoubt answer: prepared sessions with a
// live owner are in the middle of an ordinary 2PC round, not in doubt.
func (t *TCPServer) inDoubtSessions() []wire.InDoubtSession {
	t.sessMu.Lock()
	defer t.sessMu.Unlock()
	return t.inDoubtLocked()
}

// settle records the outcome a voted session reached on connection cs.
// Only the owner settles: a connection attach took the session from
// leaves the bookkeeping to the new owner, which settles at the latest
// when it exits.
func (t *TCPServer) settle(id int64, ss *servedSession, cs *connState, st ldbms.SessionState) {
	t.sessMu.Lock()
	mine := t.prepared[id] == ss && ss.owner == cs
	t.sessMu.Unlock()
	if mine {
		t.recordOutcome(id, st)
	}
}

// recordOutcome moves a once-prepared session from the prepared table
// to a tombstone of its terminal state — in one step, so attach never
// finds neither — journaling it first when the server is durable
// (fsynced for commits: the tombstone must answer a retrying coordinator
// even across a crash).
func (t *TCPServer) recordOutcome(id int64, st ldbms.SessionState) {
	if t.journal != nil {
		status := mtlog.StatusAborted
		if st == ldbms.StateCommitted {
			status = mtlog.StatusCommitted
		}
		if err := t.journal.Append(&mtlog.Record{Type: mtlog.POutcome, SessionID: id, Status: status}); err != nil {
			// The local outcome stands regardless; losing the durable
			// tombstone only matters if we crash before the coordinator
			// acknowledges, and then presumed abort plus the coordinator's
			// own journal still terminate correctly. Record for operators.
			t.noteConnErr(fmt.Errorf("lam: journal outcome session %d: %w", id, err))
		}
	}
	t.sessMu.Lock()
	delete(t.prepared, id)
	t.tombstone[id] = tombstone{state: st, at: time.Now()}
	t.publishGaugesLocked()
	t.sessMu.Unlock()
}

// forget handles a coordinator end-of-multitransaction acknowledgment:
// the tombstone (or nothing — forget is idempotent) is released and the
// journal eventually compacted.
func (t *TCPServer) forget(id int64) {
	t.sessMu.Lock()
	_, had := t.tombstone[id]
	delete(t.tombstone, id)
	t.publishGaugesLocked()
	t.sessMu.Unlock()
	if had {
		t.ack(id)
	}
}

// ack journals a PAck for the session and compacts the journal when
// enough acknowledgments have accumulated.
func (t *TCPServer) ack(id int64) {
	if t.journal == nil {
		return
	}
	if err := t.journal.Append(&mtlog.Record{Type: mtlog.PAck, SessionID: id}); err != nil {
		t.noteConnErr(fmt.Errorf("lam: journal ack session %d: %w", id, err))
		return
	}
	t.sessMu.Lock()
	t.acks++
	compact := t.acks >= t.opts.CompactEvery
	if compact {
		t.acks = 0
	}
	t.sessMu.Unlock()
	if compact {
		if _, err := t.journal.Compact(); err != nil {
			t.noteConnErr(fmt.Errorf("lam: journal compact: %w", err))
		}
	}
}

// publishGauges exports the live tombstone and in-doubt session counts.
func (t *TCPServer) publishGauges() {
	t.sessMu.Lock()
	t.publishGaugesLocked()
	t.sessMu.Unlock()
}

func (t *TCPServer) publishGaugesLocked() {
	svc := t.srv.Name()
	mTombstones.With(svc).Set(int64(len(t.tombstone)))
	mParked.With(svc).Set(int64(len(t.inDoubtLocked())))
}

func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.handle(conn)
	}
}

// connState is the per-connection session table; its address is the
// connection's identity as a session owner.
type connState struct {
	sessions map[int64]*servedSession
}

func (t *TCPServer) handle(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		conn.Close()
	}()

	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	cs := &connState{sessions: make(map[int64]*servedSession)}
	defer func() {
		for id, ss := range cs.sessions {
			t.release(id, ss, cs)
		}
	}()

	for {
		var req wire.Request
		if err := dec.Decode(&req); err != nil {
			// A client hanging up between requests (EOF, reset, or our own
			// shutdown closing the socket under the read) is the normal end
			// of a connection's life, not an error. Only genuinely abnormal
			// failures — a frame torn mid-message, undecodable bytes — are
			// recorded.
			t.noteConnErr(err)
			return
		}
		start := time.Now()
		resp := t.dispatch(&req, cs)
		elapsed := time.Since(start)
		resp.ServerNS = elapsed.Nanoseconds()
		op := req.Kind.String()
		mServerRequests.With(op).Inc()
		mServerLatency.With(op).Observe(elapsed.Seconds())
		if req.TraceID != "" {
			// Correlate this server-side span with the coordinator's call
			// span: same trace id, parented under the client span id that
			// rode in on the request.
			t.obsTracer().RecordServerSpan(req.TraceID, "serve:"+op, obs.KindServer,
				obs.SpanID(req.ParentSpan), start, elapsed, resp.ErrMsg)
		}
		if err := enc.Encode(resp); err != nil {
			t.noteConnErr(err)
			return
		}
	}
}

// noteConnErr records a connection-loop failure unless it is a benign
// close or the race of a clean server shutdown against an in-flight
// read.
func (t *TCPServer) noteConnErr(err error) {
	if wire.BenignClose(err) {
		return
	}
	t.mu.Lock()
	closing := t.closed
	t.mu.Unlock()
	if closing {
		// Shutdown severs client connections mid-frame by design; the
		// resulting decode errors are expected.
		return
	}
	t.errMu.Lock()
	t.connErrs = append(t.connErrs, err)
	t.errMu.Unlock()
}

// ConnErrors returns the non-benign connection-loop errors seen so far
// (for tests and operational monitoring). Ordinary disconnects never
// appear here.
func (t *TCPServer) ConnErrors() []error {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return append([]error(nil), t.connErrs...)
}

func (t *TCPServer) dispatch(req *wire.Request, cs *connState) *wire.Response {
	resp := &wire.Response{}
	fail := func(err error) *wire.Response {
		resp.ErrCode, resp.ErrMsg = wire.EncodeError(err)
		return resp
	}
	session := func() (*servedSession, bool) {
		ss, ok := cs.sessions[req.SessionID]
		return ss, ok
	}
	noSession := func() *wire.Response {
		return fail(fmt.Errorf("%w: %d", wire.ErrNoSession, req.SessionID))
	}

	switch req.Kind {
	case wire.ReqHello:
		resp.ServiceNm = t.srv.Name()
	case wire.ReqProfile:
		resp.Profile = wire.FromProfile(t.srv.Profile())
		resp.ServiceNm = t.srv.Name()
	case wire.ReqOpen:
		s, err := t.srv.OpenSession(req.Database)
		if err != nil {
			return fail(err)
		}
		id := t.allocID()
		cs.sessions[id] = &servedSession{sess: s, owner: cs}
		resp.SessionID = id
	case wire.ReqExec:
		ss, ok := session()
		if !ok {
			return noSession()
		}
		res, err := ss.sess.Exec(req.SQL)
		if err != nil {
			return fail(err)
		}
		wres := &wire.Result{RowsAffected: res.RowsAffected, Rows: res.Rows, Plan: res.Plan}
		for _, c := range res.Columns {
			wres.Columns = append(wres.Columns, wire.Column{Name: c.Name, Type: uint8(c.Type)})
		}
		resp.Result = wres
	case wire.ReqLoad:
		ss, ok := session()
		if !ok {
			return noSession()
		}
		n, err := ss.sess.Load(req.Name, req.Rows)
		if err != nil {
			return fail(err)
		}
		resp.Result = &wire.Result{RowsAffected: n}
	case wire.ReqPrepare:
		ss, ok := session()
		if !ok {
			return noSession()
		}
		s := ss.sess
		if err := s.Prepare(); err != nil {
			return fail(err)
		}
		if t.journal != nil {
			// The participant's half of the write-ahead rule: the redo
			// state (and the multitransaction correlation) reaches stable
			// storage before the PREPARED vote goes on the wire. If it
			// cannot, the vote must be NO.
			rec := &mtlog.Record{Type: mtlog.PPrepared, SessionID: req.SessionID,
				MTID: req.MTID, DB: s.Database(), Redo: s.Redo()}
			if err := t.journal.Append(rec); err != nil {
				_ = s.Rollback()
				return fail(fmt.Errorf("lam: journal prepare: %w", err))
			}
		}
		t.voted(req.SessionID, ss, req.MTID)
	case wire.ReqCommit:
		ss, ok := session()
		if !ok {
			return noSession()
		}
		if err := ss.sess.Commit(); err != nil {
			return fail(err)
		}
		// A once-prepared session reached its outcome on a live
		// connection: record the tombstone now (journaled and fsynced
		// for commits), so a crash between this reply and the
		// coordinator's acknowledgment cannot forget the answer. The
		// session itself stays open — a DOL program may run further
		// transactions on the same connection alias.
		t.settle(req.SessionID, ss, cs, ldbms.StateCommitted)
	case wire.ReqRollback:
		ss, ok := session()
		if !ok {
			return noSession()
		}
		if err := ss.sess.Rollback(); err != nil {
			return fail(err)
		}
		t.settle(req.SessionID, ss, cs, ldbms.StateAborted)
	case wire.ReqState:
		ss, ok := session()
		if !ok {
			return noSession()
		}
		resp.State = uint8(ss.sess.State())
	case wire.ReqAttach:
		ss, st, ok := t.attach(req.SessionID, cs)
		if !ok {
			return noSession()
		}
		if ss != nil {
			cs.sessions[req.SessionID] = ss
		}
		resp.State = uint8(st)
	case wire.ReqForget:
		t.forget(req.SessionID)
	case wire.ReqInDoubt:
		resp.InDoubt = t.inDoubtSessions()
	case wire.ReqCloseSession:
		if ss, ok := session(); ok {
			ss.sess.Close()
			t.settle(req.SessionID, ss, cs, ss.sess.State())
			delete(cs.sessions, req.SessionID)
		}
	case wire.ReqDescribe:
		s, err := t.srv.OpenSession(req.Database)
		if err != nil {
			return fail(err)
		}
		defer s.Close()
		cols, err := s.Describe(req.Name)
		if err != nil {
			return fail(err)
		}
		resp.Columns = wire.FromColumns(cols)
	case wire.ReqListTables:
		s, err := t.srv.OpenSession(req.Database)
		if err != nil {
			return fail(err)
		}
		defer s.Close()
		names, err := s.ListTables()
		if err != nil {
			return fail(err)
		}
		resp.Names = names
	case wire.ReqListViews:
		s, err := t.srv.OpenSession(req.Database)
		if err != nil {
			return fail(err)
		}
		defer s.Close()
		names, err := s.ListViews()
		if err != nil {
			return fail(err)
		}
		resp.Names = names
	default:
		return fail(errors.New("lam: unknown request kind"))
	}
	return resp
}
