package mdserver

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"msql/internal/admit"
	"msql/internal/core"
	"msql/internal/obs"
	"msql/internal/wire"
)

var (
	mSessions = obs.Default().Gauge("msql_coord_sessions",
		"Live client sessions on the coordinator server.")
	mScripts = obs.Default().CounterVec("msql_coord_scripts_total",
		"Scripts executed by the coordinator server, by outcome.", "outcome")
	mRejected = obs.Default().Counter("msql_coord_sessions_rejected_total",
		"Connections rejected with overload because MaxSessions was reached.")
)

// Options configure the coordinator server.
type Options struct {
	// MaxSessions caps concurrent client connections (default 64). A
	// connection beyond the cap is answered wire.CodeOverload and closed.
	MaxSessions int
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 64
	}
	return o
}

// Server accepts client connections and executes their MSQL scripts
// against a shared federation.
type Server struct {
	*wire.Server
	fed  *core.Federation
	opts Options

	mu       sync.Mutex
	sessions int
}

// Serve starts a coordinator server for fed at addr (use "127.0.0.1:0"
// for an ephemeral port) and returns immediately. Close severs all
// client connections and waits for their handlers: statements already
// executing run to completion against the (canceled) connection context
// — the engine's termination protocol still resolves any prepared
// participants.
func Serve(addr string, fed *core.Federation, opts Options) (*Server, error) {
	s := &Server{fed: fed, opts: opts.withDefaults()}
	var err error
	if s.Server, err = wire.Serve(addr, s.open); err != nil {
		return nil, err
	}
	return s, nil
}

// ActiveSessions reports the number of live client sessions.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions
}

// open admits a connection as a session, or sheds it with an overload
// error once MaxSessions are live: the client gets a definite
// in-protocol answer — it was shed, nothing executed — instead of a
// silent hangup.
func (s *Server) open() (wire.Handler, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions >= s.opts.MaxSessions {
		mRejected.Inc()
		return nil, fmt.Errorf("%d sessions at capacity: %w", s.opts.MaxSessions, admit.ErrOverload)
	}
	s.sessions++
	mSessions.Set(int64(s.sessions))
	return &handler{s: s}, nil
}

// handler runs one connection's scripts in its session. The connection
// context ends when the client disconnects, even while a statement is
// executing, so abandoned work is interrupted at the next cancellation
// point instead of running blind until completion.
type handler struct {
	s    *Server
	sess *core.Session
}

func (h *handler) Handle(ctx context.Context, req *wire.Request) *wire.Response {
	resp := &wire.Response{}
	switch req.Kind {
	case wire.ReqHello:
		resp.ServiceNm = "msqld"
	case wire.ReqScript:
		if h.sess == nil {
			h.sess = h.s.fed.NewSession(req.Tenant)
		}
		results, err := h.sess.ExecScriptContext(ctx, req.SQL)
		resp.Script = toScriptResults(results, err)
		if err != nil {
			resp.ErrCode, resp.ErrMsg = wire.EncodeError(err)
			mScripts.With("error").Inc()
		} else {
			mScripts.With("ok").Inc()
		}
	default:
		resp.ErrCode, resp.ErrMsg = wire.EncodeError(
			fmt.Errorf("mdserver: unsupported request kind %s", req.Kind))
	}
	return resp
}

func (h *handler) Close() {
	h.s.mu.Lock()
	h.s.sessions--
	mSessions.Set(int64(h.s.sessions))
	h.s.mu.Unlock()
}

// toScriptResults converts the coordinator's per-statement results to
// their wire form. A trailing script error is appended as a failed
// entry so the client's transcript shows where execution stopped.
func toScriptResults(results []*core.Result, scriptErr error) []wire.ScriptResult {
	out := make([]wire.ScriptResult, 0, len(results)+1)
	for _, r := range results {
		out = append(out, toScriptResult(r))
	}
	if scriptErr != nil {
		out = append(out, wire.ScriptResult{Kind: "error", Failed: true, Detail: scriptErr.Error()})
	}
	return out
}

func toScriptResult(r *core.Result) wire.ScriptResult {
	w := wire.ScriptResult{Kind: kindString(r.Kind)}
	switch r.Kind {
	case core.KindSelect:
		if r.Multitable != nil {
			if flat, err := r.Multitable.Flatten(); err == nil {
				for _, c := range flat.Columns {
					w.Columns = append(w.Columns, c.Name)
				}
				for _, row := range flat.Rows {
					cells := make([]string, len(row))
					for i, v := range row {
						cells[i] = v.String()
					}
					w.Rows = append(w.Rows, cells)
				}
			}
			w.Detail = fmt.Sprintf("%d row(s)", r.Multitable.TotalRows())
		}
	case core.KindSync, core.KindGlobalDML, core.KindMultiTx:
		w.State = r.State.String()
		w.Detail = fmt.Sprintf("DOLSTATUS=%d", r.Status)
		if r.AchievedState != nil {
			w.Detail = fmt.Sprintf("acceptable state %d: %s", r.Status, strings.Join(r.AchievedState, " AND "))
		}
	case core.KindExplain:
		if r.Plan != nil {
			w.Columns = []string{"QUERY PLAN"}
			text := r.Plan.Render()
			if r.PlanJSON {
				text = r.Plan.JSON()
			}
			for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
				w.Rows = append(w.Rows, []string{line})
			}
			w.Detail = "plan digest " + r.Plan.Digest()
		}
	case core.KindIncorporate:
		w.Detail = "service incorporated"
	case core.KindImport:
		w.Detail = "database imported"
	}
	return w
}

func kindString(k core.ResultKind) string {
	switch k {
	case core.KindSelect:
		return "select"
	case core.KindSync:
		return "sync"
	case core.KindGlobalDML:
		return "global-dml"
	case core.KindMultiTx:
		return "multitx"
	case core.KindIncorporate:
		return "incorporate"
	case core.KindImport:
		return "import"
	case core.KindNoop:
		return "noop"
	case core.KindExplain:
		return "explain"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}
