// Package wire defines the message protocol spoken between the DOL engine
// and the Local Access Managers, and between clients and the coordinator
// server (ReqScript). Messages are gob-encoded over a net.Conn — TCP,
// loopback for the LDBMSs a coordinator serves in its own process — so
// every site exercises identical marshalling.
//
// The package is also the protocol's one connection layer, and the only
// package that knows the codec: Serve is the accept loop both servers
// run on (a Handler per connection), and Conn the client exchange both
// clients make (Call: deadline, cancellation, poison latch).
//
// The protocol mirrors the operations the paper's evaluation plans need
// from a LAM: open a session on a database, execute local SQL, load typed
// rows in bulk, drive the 2PC interface (prepare/commit/rollback), inspect
// the session state, and describe schemas for IMPORT.
//
// A session's verbs need not each cost a round. Its open rides its first
// request (Request.Open), its clean close the connection's next request
// (Request.CloseFirst), and a DOL task's transaction ending rides the
// task's last exec (Request.Then): the server commits, or votes, right
// after that statement succeeds and answers both in one Response. The
// coordinator's end-of-multitransaction acknowledgments ride whatever
// request it next sends the site (Request.Forget).
package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"

	"msql/internal/admit"
	"msql/internal/ldbms"
	"msql/internal/obs"
	"msql/internal/schema"
	"msql/internal/sqlval"
	"msql/internal/storage"
)

// ReqKind identifies a request operation.
type ReqKind uint8

// Request kinds.
const (
	ReqHello ReqKind = iota
	ReqProfile
	// ReqOpen is retired: a session opens with its first request
	// (Request.Open), and a server answers ReqOpen "unknown request
	// kind". The kind keeps its place so the kinds after it keep their
	// numbers.
	ReqOpen
	ReqExec
	ReqPrepare
	ReqCommit
	ReqRollback
	ReqState
	ReqCloseSession
	ReqDescribe
	ReqListTables
	ReqListViews
	// ReqAttach re-binds a prepared session orphaned by a lost connection
	// (an in-doubt participant) to the requesting connection, so a
	// recovering coordinator can query its state and drive it to
	// commit/rollback. For sessions already resolved after detaching, the
	// response carries the recorded terminal state instead of binding.
	ReqAttach
	// ReqForget is the coordinator's end-of-multitransaction
	// acknowledgment for once-prepared sessions: the coordinator has a
	// durable terminal outcome and will never ask about them again, so
	// the participant may evict their tombstones and compact them out of
	// its journal. Forgetting an unknown session is a no-op, making the
	// acknowledgment idempotent and safe to retry. Acknowledgments
	// usually ride another request (Request.Forget); a client sends
	// ReqForget, with the sessions in Forget, only for those still
	// queued when it closes.
	ReqForget
	// ReqScript asks a coordinator server (msqld) to execute an MSQL
	// script in the requesting connection's session. Unlike the other
	// kinds — which a LAM serves — this one is served by the coordinator
	// tier: SQL carries the script source, Tenant the admission-control
	// identity, and the response's Script field the per-statement
	// outcomes. Sequential ReqScripts on one connection share session
	// state (scope, LETs, the open unit); independent connections run in
	// parallel.
	ReqScript
	// ReqInDoubt asks a LAM for its parked prepared sessions — the
	// in-doubt inventory awaiting a coordinator decision — together with
	// the multitransaction ids their prepare requests carried. A
	// recovering coordinator uses the listing to find sessions whose
	// votes never reached its own journal (the crash landed between the
	// participant's vote and the durable decision naming it) and
	// terminate them under presumed abort.
	ReqInDoubt
	// ReqLoad inserts the typed rows in Rows into the table Name of the
	// session's database, inside its open transaction: the data-plane
	// bulk operation SHIP moves partial results with, an INSERT ... VALUES
	// of those rows without the SQL text. The response's Result carries
	// the count in RowsAffected. A server predating it answers "unknown
	// request kind".
	ReqLoad
)

func (k ReqKind) String() string {
	names := [...]string{"hello", "profile", "open", "exec", "prepare", "commit",
		"rollback", "state", "close-session", "describe", "list-tables", "list-views",
		"attach", "forget", "script", "in-doubt", "load"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("ReqKind(%d)", uint8(k))
}

// Request is one client message.
type Request struct {
	Kind      ReqKind
	SessionID int64
	Database  string // requests with Open set, ReqDescribe, ReqList*
	SQL       string // ReqExec
	// Open asks the server to open a session on Database and serve the
	// request in it, so a session's first verb carries its own open. The
	// reply's SessionID names the new session, also when the verb
	// itself fails; a failed open answers with SessionID zero.
	Open bool
	// CloseFirst names a transaction-free session of this connection
	// that the server closes before it serves the request: a client's
	// clean close rides the connection's next request instead of taking
	// a round of its own. Zero closes nothing.
	CloseFirst int64
	Name       string // ReqDescribe: table or view name; ReqLoad: target table
	// Rows are the rows of a ReqLoad, in the representation Result.Rows
	// returns them in. Gob omits the field when empty, so every other
	// request encodes as before.
	Rows Rows
	// Forget lists once-prepared sessions the server forgets before it
	// serves the request, as a ReqForget each would: the coordinator's
	// END acknowledgments ride the site's next request of any kind
	// instead of taking rounds of their own. Gob omits the field when
	// empty.
	Forget []int64
	// TraceID correlates this request with a coordinator-side trace
	// (internal/obs): when nonempty the server records its own span for
	// the request under the same trace id, so client and server timing
	// lines up in /debug/traces. ParentSpan is the coordinator-side call
	// span the server-side span attaches under. Both are ignored by
	// servers predating the observability plane (gob drops unknown
	// fields), keeping the protocol compatible in both directions.
	TraceID    string
	ParentSpan uint64
	// MTID is the coordinator's multitransaction id, riding on a vote
	// (ReqPrepare, or a ReqExec whose Then is ReqPrepare) so the
	// participant's prepared-state journal can correlate its session
	// records with the coordinator's journal. Zero when the coordinator
	// runs unjournaled; ignored by servers predating participant
	// durability.
	MTID uint64
	// Tenant identifies the client for admission control and fair
	// queueing on ReqScript. Empty means the anonymous tenant. Ignored
	// by LAM servers (gob drops unknown fields).
	Tenant string
	// Then ends the session's transaction in the same request, once the
	// ReqExec's statement has succeeded: ReqCommit commits it, ReqPrepare
	// votes (with MTID, as a ReqPrepare would). A failed statement runs
	// no ending. The reply carries the ending's own error in
	// Response.ThenErrCode and ThenErrMsg. Zero ends nothing; a server
	// refuses any other value, or Then on any other kind, before it acts
	// on the request at all.
	Then ReqKind
}

// Op names the request for metrics and spans: its kind, joined by "+"
// to the ending it carries ("exec+commit", "exec+prepare").
func (r *Request) Op() string {
	if r.Then == 0 {
		return r.Kind.String()
	}
	return r.Kind.String() + "+" + r.Then.String()
}

// Column mirrors schema.Column across the wire. Key is omitted by gob
// when false, so a peer predating it reads and sends columns as before:
// its tables simply have no declared key.
type Column struct {
	Name  string
	Type  uint8
	Width int
	Key   bool
}

// ToColumns converts wire columns back.
func ToColumns(cols []Column) []schema.Column {
	out := make([]schema.Column, len(cols))
	for i, c := range cols {
		out[i] = schema.Column{Name: c.Name, Type: sqlval.Kind(c.Type), Width: c.Width, Key: c.Key}
	}
	return out
}

// FromColumns converts columns to wire form.
func FromColumns(cols []schema.Column) []Column {
	out := make([]Column, len(cols))
	for i, c := range cols {
		out[i] = Column{Name: c.Name, Type: uint8(c.Type), Width: c.Width, Key: c.Key}
	}
	return out
}

// Rows is a row set in transit — a query result's rows or the rows of a
// ReqLoad. It is [][]sqlval.Value to every caller; on the wire it is one
// opaque gob value holding the storage tier's tuple encoding of each row
// (storage.EncodeRow: a tag byte plus a varint, eight float bytes or a
// length-prefixed string per value), each row behind a uvarint length and
// the whole behind a uvarint row count. Gob's reflection over a
// five-field struct per value cost more than scanning the rows did.
type Rows [][]sqlval.Value

// GobEncode implements gob.GobEncoder.
func (r Rows) GobEncode() ([]byte, error) {
	perRow := 0
	if len(r) > 0 {
		// Rows of one result are alike: size the buffer from the first
		// (its tuple and length prefix), with an eighth to spare.
		perRow = len(storage.EncodeRow(nil, r[0])) + 2
	}
	out := make([]byte, 0, binary.MaxVarintLen64+perRow*len(r)*9/8)
	out = binary.AppendUvarint(out, uint64(len(r)))
	var tuple []byte
	for _, row := range r {
		tuple = storage.EncodeRow(tuple[:0], row)
		out = binary.AppendUvarint(out, uint64(len(tuple)))
		out = append(out, tuple...)
	}
	return out, nil
}

// GobDecode implements gob.GobDecoder. Every length is checked against
// the bytes that remain, so a torn or hostile payload fails with an error
// and allocates no more than its own size warrants.
func (r *Rows) GobDecode(b []byte) error {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)) {
		return errBadRows
	}
	b = b[sz:]
	rows := make(Rows, n)
	for i := range rows {
		ln, sz := binary.Uvarint(b)
		if sz <= 0 || ln > uint64(len(b)-sz) {
			return errBadRows
		}
		row, err := storage.DecodeRow(b[sz : sz+int(ln)])
		if err != nil {
			return fmt.Errorf("%w: %v", errBadRows, err)
		}
		rows[i] = row
		b = b[sz+int(ln):]
	}
	if len(b) != 0 {
		return errBadRows
	}
	*r = rows
	return nil
}

var errBadRows = errors.New("wire: malformed row payload")

// Result carries a query result across the wire. Plan is non-nil only
// for EXPLAIN statements; older peers drop the field silently (gob
// ignores unknown fields in both directions).
type Result struct {
	Columns      []Column
	Rows         Rows
	RowsAffected int
	Plan         *obs.PlanNode
}

// Profile mirrors ldbms.Profile across the wire.
type Profile struct {
	Name              string
	MultiDatabase     bool
	TwoPC             bool
	AutoCommitClasses []uint8
}

// FromProfile converts a server profile to wire form.
func FromProfile(p ldbms.Profile) Profile {
	w := Profile{Name: p.Name, MultiDatabase: p.MultiDatabase, TwoPC: p.TwoPC}
	for c, on := range p.AutoCommitClasses {
		if on {
			w.AutoCommitClasses = append(w.AutoCommitClasses, uint8(c))
		}
	}
	return w
}

// ToProfile converts wire form back to a server profile.
func (w Profile) ToProfile() ldbms.Profile {
	p := ldbms.Profile{
		Name:              w.Name,
		MultiDatabase:     w.MultiDatabase,
		TwoPC:             w.TwoPC,
		AutoCommitClasses: make(map[ldbms.StmtClass]bool, len(w.AutoCommitClasses)),
	}
	for _, c := range w.AutoCommitClasses {
		p.AutoCommitClasses[ldbms.StmtClass(c)] = true
	}
	return p
}

// ErrNoSession reports that a server has no live session, parked
// in-doubt session, or outcome tombstone under the requested id. It is a
// definite answer, not a transport failure: under presumed abort a
// participant with no record of a session either never voted or was
// already acknowledged and allowed to forget, so the coordinator can
// terminate the protocol from its own journal instead of retrying.
var ErrNoSession = errors.New("wire: unknown session")

// Error codes preserved across the wire so errors.Is keeps working for
// the sentinels the coordinator's plans branch on.
const (
	CodeNone        = ""
	CodeNoTwoPC     = "no-2pc"
	CodeInjected    = "injected-fault"
	CodeLockTimeout = "lock-timeout"
	CodeState       = "session-state"
	CodeNoTable     = "no-table"
	CodeNoDatabase  = "no-database"
	CodeNoSession   = "no-session"
	CodeOverload    = "overload"
	CodeOther       = "error"
)

// EncodeError maps an error to a wire code plus message.
func EncodeError(err error) (code, msg string) {
	if err == nil {
		return CodeNone, ""
	}
	switch {
	case errors.Is(err, ldbms.ErrNoTwoPC):
		code = CodeNoTwoPC
	case errors.Is(err, ldbms.ErrInjected):
		code = CodeInjected
	case errors.Is(err, schema.ErrLockTimeout):
		code = CodeLockTimeout
	case errors.Is(err, ldbms.ErrSessionState):
		code = CodeState
	case errors.Is(err, schema.ErrNoTable):
		code = CodeNoTable
	case errors.Is(err, schema.ErrNoDatabase):
		code = CodeNoDatabase
	case errors.Is(err, ErrNoSession):
		code = CodeNoSession
	case errors.Is(err, admit.ErrOverload):
		code = CodeOverload
	default:
		code = CodeOther
	}
	return code, err.Error()
}

// DecodeError reconstructs an error from a wire code and message, wrapping
// the matching sentinel when one exists.
func DecodeError(code, msg string) error {
	if code == CodeNone {
		return nil
	}
	var sentinel error
	switch code {
	case CodeNoTwoPC:
		sentinel = ldbms.ErrNoTwoPC
	case CodeInjected:
		sentinel = ldbms.ErrInjected
	case CodeLockTimeout:
		sentinel = schema.ErrLockTimeout
	case CodeState:
		sentinel = ldbms.ErrSessionState
	case CodeNoTable:
		sentinel = schema.ErrNoTable
	case CodeNoDatabase:
		sentinel = schema.ErrNoDatabase
	case CodeNoSession:
		sentinel = ErrNoSession
	case CodeOverload:
		sentinel = admit.ErrOverload
	default:
		return errors.New(msg)
	}
	return fmt.Errorf("%w: remote: %s", sentinel, msg)
}

// Response is one server message.
type Response struct {
	ErrCode   string
	ErrMsg    string
	SessionID int64
	Result    *Result
	Columns   []Column
	// TableRows answers ReqDescribe with the table's live row count. Gob
	// omits it when zero, which is also what a view or a server predating
	// the field reports: unknown.
	TableRows int64
	Names     []string
	State     uint8
	Profile   Profile
	ServiceNm string
	// ServerNS is the server-side processing time of the request in
	// nanoseconds (0 when unmeasured), letting the client split each
	// call span into wire time vs. LAM work.
	ServerNS int64
	// Script carries the per-statement outcomes of a ReqScript. A
	// script-level failure (parse error, admission shed, timeout) is
	// reported through ErrCode/ErrMsg instead; Script then holds the
	// statements that did complete before the failure.
	Script []ScriptResult
	// InDoubt answers ReqInDoubt with the server's parked prepared
	// sessions.
	InDoubt []InDoubtSession
	// NextSession answers a request that opened a session (Request.Open)
	// with the id the connection's next opened session will take. A
	// client that knows its session's id before the first request goes
	// out can resolve the session even if that request's reply is lost,
	// so only such a request carries a vote (Request.Then).
	NextSession int64
	// ThenErrCode and ThenErrMsg are the error of the ending a ReqExec
	// carried (Request.Then), empty when it succeeded. They are set only
	// when the statement itself succeeded: otherwise ErrCode says why,
	// and no ending ran.
	ThenErrCode string
	ThenErrMsg  string
}

// InDoubtSession identifies one parked prepared session awaiting a
// coordinator decision, keyed by the session id a recovering
// coordinator re-attaches with and the multitransaction id its prepare
// carried (zero for unjournaled coordinators).
type InDoubtSession struct {
	SessionID int64
	MTID      uint64
}

// ScriptResult is the wire form of one statement's outcome inside a
// ReqScript reply — enough for a client to see what committed, what
// aborted, and what each query returned, without dragging the
// coordinator's full result type across the protocol.
type ScriptResult struct {
	// Kind echoes the coordinator's result kind (query, global update,
	// multitransaction, command) as a short string.
	Kind string
	// State is the terminal global state of a synced unit ("committed",
	// "aborted", ...); empty for plain commands.
	State string
	// Failed marks a statement that errored; Detail then carries the
	// message.
	Failed bool
	// Detail is a one-line human-readable summary (row counts, state
	// transitions, error text).
	Detail string
	// Rows and Columns carry query output for SELECT-like statements.
	Columns []string
	Rows    [][]string
}

// Err returns the decoded error of the response.
func (r *Response) Err() error { return DecodeError(r.ErrCode, r.ErrMsg) }

// ThenErr returns the decoded error of the ending the request carried.
func (r *Response) ThenErr() error { return DecodeError(r.ThenErrCode, r.ThenErrMsg) }

// BenignClose reports whether an error is the ordinary signature of a
// peer closing its connection — EOF at a message boundary, a reset or
// aborted socket, or a read on a locally closed listener/conn during
// shutdown. Server request loops see these constantly when clients
// disconnect or a shutdown races an in-flight read; they are part of
// normal connection lifecycle and must not surface as errors in logs or
// tests. A torn message (io.ErrUnexpectedEOF) is NOT benign: the peer
// died mid-frame, which matters to whoever was decoding it.
func BenignClose(err error) bool {
	if err == nil {
		return true
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return false
	}
	switch {
	case errors.Is(err, io.EOF),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.EPIPE):
		return true
	}
	return false
}

// Transient reports whether an error is a transport-level failure whose
// outcome at the server is unknown (timeout, severed or refused
// connection, torn gob stream). Transient errors may be retried on the
// control plane and mark in-flight transaction work as in-doubt. Errors
// the server answered with (wire Response errors) are definite and never
// transient; a caller-canceled context is deliberate and not transient
// either.
func Transient(err error) bool {
	if err == nil {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	switch {
	case errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, syscall.ETIMEDOUT):
		return true
	}
	return false
}
