package lam

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/obs"
	"msql/internal/wire"
)

// TCPServer serves a local DBMS over the wire protocol. Each accepted
// connection is a handler of wire.Serve's with its own session table, so
// one remote client session maps to one connection and parallel tasks do
// not serialize on a shared socket.
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
	*wire.Server // the connections; ConnErrors also lists journal failures
	srv          *ldbms.Server
	journal      *mtlog.ParticipantJournal
	opts         ServeOptions

	sessMu    sync.Mutex
	nextID    int64
	prepared  map[int64]*servedSession // voted, no outcome yet
	tombstone map[int64]tombstone
	// refused holds the ids attach answered "no session" for, and when:
	// the asker concluded abort, so such an id never votes yes here.
	// Released like tombstones: by ReqForget, by TTL, and by Close.
	refused map[int64]time.Time
	acks    int // ReqForget/TTL evictions since the last compaction

	stopJanitor context.CancelFunc // idempotent, so Close may run twice
	janitorDone chan struct{}

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
	// TombstoneTTL bounds how long an unacknowledged outcome tombstone,
	// and a refused vote's session id, is retained when no coordinator
	// ReqForget (or server close) releases it first. Zero means a default
	// of 5 minutes. Under presumed abort an evicted tombstone is safe: an
	// asker finding no session is answered ErrNoSession and concludes
	// abort unless its own journal says commit.
	TombstoneTTL time.Duration
	// CompactEvery triggers journal compaction after that many
	// acknowledgments (ReqForget or TTL eviction). Zero means a default
	// of 16; compaction only runs when a journal is configured.
	CompactEvery int
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.TombstoneTTL <= 0 {
		o.TombstoneTTL = 5 * time.Minute
	}
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
		prepared:  make(map[int64]*servedSession),
		tombstone: make(map[int64]tombstone),
		refused:   make(map[int64]time.Time),
	}
	if t.journal != nil {
		if err := t.replay(); err != nil {
			return nil, fmt.Errorf("lam: journal replay: %w", err)
		}
	}
	var err error
	t.Server, err = wire.Serve(addr, func() (wire.Handler, error) {
		return &connState{t: t, sessions: make(map[int64]*servedSession)}, nil
	})
	if err != nil {
		return nil, err
	}
	var ctx context.Context
	ctx, t.stopJanitor = context.WithCancel(context.Background())
	t.janitorDone = make(chan struct{})
	go t.janitor(ctx)
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
func (t *TCPServer) janitor(ctx context.Context) {
	defer close(t.janitorDone)
	period := t.opts.TombstoneTTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
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
			for id, at := range t.refused {
				if at.Before(cutoff) {
					delete(t.refused, id)
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

// Close stops the listener and all connections. Without a journal,
// in-doubt sessions are rolled back — the shutdown aborts
// unresolved participants — and their outcome recorded. With a journal
// they are left journaled: the next ServeWith on the same journal
// re-materializes them, which is the difference between a crash and an
// amnesiac restart.
func (t *TCPServer) Close() error {
	err := t.Server.Close()
	t.stopJanitor()
	<-t.janitorDone
	t.sessMu.Lock()
	clear(t.refused)
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
// stable storage: from here until an outcome, attach finds it. It
// reports false, entering nothing, for an id attach has refused.
func (t *TCPServer) voted(id int64, ss *servedSession, mtid uint64) bool {
	t.sessMu.Lock()
	defer t.sessMu.Unlock()
	if _, no := t.refused[id]; no {
		return false
	}
	ss.mtid = mtid
	t.prepared[id] = ss
	return true
}

// attach re-binds a prepared session to cs, taking it from the
// connection that owns it (if any); when the session already reached an
// outcome it returns the recorded terminal state instead. The previous
// owner may still be alive — its client gave up on it, its handler has
// not noticed yet — and skips the session when it exits. An id with
// neither is refused a vote from then on: the asker takes "no session"
// for abort (presumed abort), and a vote still in flight must not park
// a session nobody will resolve.
func (t *TCPServer) attach(id int64, cs *connState) (*servedSession, ldbms.SessionState, bool) {
	t.sessMu.Lock()
	ss, live := t.prepared[id]
	if live {
		ss.owner = cs
		t.publishGaugesLocked()
	}
	tb, dead := t.tombstone[id]
	if !live && !dead {
		t.refused[id] = time.Now()
	}
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
			t.Note(fmt.Errorf("lam: journal outcome session %d: %w", id, err))
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
	delete(t.refused, id)
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
		t.Note(fmt.Errorf("lam: journal ack session %d: %w", id, err))
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
			t.Note(fmt.Errorf("lam: journal compact: %w", err))
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

// connState is the per-connection session table and the connection's
// handler; its address is the connection's identity as a session owner.
type connState struct {
	t        *TCPServer
	sessions map[int64]*servedSession
	next     int64 // the id the next session opened here takes (wire.Response.NextSession)
}

// Handle serves one request, timing it for the server metrics and span.
// The LAM does not yet stop work when ctx ends.
func (cs *connState) Handle(_ context.Context, req *wire.Request) *wire.Response {
	t := cs.t
	start := time.Now()
	resp := t.dispatch(req, cs)
	elapsed := time.Since(start)
	resp.ServerNS = elapsed.Nanoseconds()
	op := req.Op()
	mServerRequests.With(op).Inc()
	mServerLatency.With(op).Observe(elapsed.Seconds())
	if req.TraceID != "" {
		// Correlate this server-side span with the coordinator's call
		// span: same trace id, parented under the client span id that
		// rode in on the request.
		t.obsTracer().RecordServerSpan(req.TraceID, "serve:"+op, obs.KindServer,
			obs.SpanID(req.ParentSpan), start, elapsed, resp.ErrMsg)
	}
	return resp
}

// Close releases the connection's sessions when it ends.
func (cs *connState) Close() {
	for id, ss := range cs.sessions {
		cs.t.release(id, ss, cs)
	}
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

	// An ending rides only an exec, and only as a commit or a vote;
	// anything else is refused before the request touches a session.
	if req.Then != 0 && (req.Kind != wire.ReqExec || (req.Then != wire.ReqCommit && req.Then != wire.ReqPrepare)) {
		return fail(fmt.Errorf("lam: %s cannot end a transaction with %s", req.Kind, req.Then))
	}

	// A clean close and an open ride on the request they precede, so
	// neither costs the client a round of its own (wire.Request.Open,
	// CloseFirst). The reply names an opened session even when the verb
	// then fails.
	if req.CloseFirst != 0 {
		t.closeSession(req.CloseFirst, cs)
	}
	if req.Open {
		s, err := t.srv.OpenSession(req.Database)
		if err != nil {
			return fail(err)
		}
		// The session takes the id this connection's previous opening
		// reply announced, and the reply announces the next one.
		id := cs.next
		if id == 0 {
			id = t.allocID()
		}
		cs.next = t.allocID()
		cs.sessions[id] = &servedSession{sess: s, owner: cs}
		req.SessionID, resp.SessionID, resp.NextSession = id, id, cs.next
	}

	switch req.Kind {
	case wire.ReqHello:
		resp.ServiceNm = t.srv.Name()
	case wire.ReqProfile:
		resp.Profile = wire.FromProfile(t.srv.Profile())
		resp.ServiceNm = t.srv.Name()
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
		var endErr error
		switch req.Then {
		case wire.ReqCommit:
			endErr = t.commit(req.SessionID, ss, cs)
		case wire.ReqPrepare:
			endErr = t.prepare(req.SessionID, ss, req.MTID)
		}
		resp.ThenErrCode, resp.ThenErrMsg = wire.EncodeError(endErr)
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
		if err := t.prepare(req.SessionID, ss, req.MTID); err != nil {
			return fail(err)
		}
	case wire.ReqCommit:
		ss, ok := session()
		if !ok {
			return noSession()
		}
		if err := t.commit(req.SessionID, ss, cs); err != nil {
			return fail(err)
		}
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
		t.closeSession(req.SessionID, cs)
	case wire.ReqDescribe:
		s, err := t.srv.OpenSession(req.Database)
		if err != nil {
			return fail(err)
		}
		defer s.Close()
		desc, err := s.Describe(req.Name)
		if err != nil {
			return fail(err)
		}
		resp.Columns = wire.FromColumns(desc.Columns)
		resp.TableRows = desc.Rows
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

// prepare votes PREPARED for session id, durably when the server
// journals, and enters it into the prepared table. An id attach has
// refused votes no and is rolled back, checked before the vote is
// journaled and again, atomically, as it enters the table.
func (t *TCPServer) prepare(id int64, ss *servedSession, mtid uint64) error {
	s := ss.sess
	t.sessMu.Lock()
	_, refused := t.refused[id]
	t.sessMu.Unlock()
	if refused {
		_ = s.Rollback()
		return errRefused
	}
	if err := s.Prepare(); err != nil {
		return err
	}
	if t.journal != nil {
		// The participant's half of the write-ahead rule: the redo
		// state (and the multitransaction correlation) reaches stable
		// storage before the PREPARED vote goes on the wire. If it
		// cannot, the vote must be NO.
		rec := &mtlog.Record{Type: mtlog.PPrepared, SessionID: id,
			MTID: mtid, DB: s.Database(), Redo: s.Redo()}
		if err := t.journal.Append(rec); err != nil {
			_ = s.Rollback()
			return fmt.Errorf("lam: journal prepare: %w", err)
		}
	}
	if !t.voted(id, ss, mtid) {
		_ = s.Rollback()
		if t.journal != nil {
			// Nobody will acknowledge the journaled vote: settle it here.
			_ = t.journal.Append(&mtlog.Record{Type: mtlog.POutcome, SessionID: id, Status: mtlog.StatusAborted})
			t.ack(id)
		}
		return errRefused
	}
	return nil
}

// errRefused answers a vote on an id attach has answered "no session" for.
var errRefused = fmt.Errorf("lam: session resolved before its vote: %w", wire.ErrNoSession)

// commit commits session id's transaction. A once-prepared session
// reached its outcome on a live connection: its tombstone is recorded
// now (journaled and fsynced for commits), so a crash between the reply
// and the coordinator's acknowledgment cannot forget the answer. The
// session itself stays open — a DOL program may run further
// transactions on the same connection alias.
func (t *TCPServer) commit(id int64, ss *servedSession, cs *connState) error {
	if err := ss.sess.Commit(); err != nil {
		return err
	}
	t.settle(id, ss, cs, ldbms.StateCommitted)
	return nil
}

// closeSession closes session id of cs's table, rolling back work it
// left uncommitted; an id the table does not hold is a no-op.
func (t *TCPServer) closeSession(id int64, cs *connState) {
	ss, ok := cs.sessions[id]
	if !ok {
		return
	}
	ss.sess.Close()
	t.settle(id, ss, cs, ss.sess.State())
	delete(cs.sessions, id)
}
