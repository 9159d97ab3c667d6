// Package core implements the multidatabase system facade — the paper's
// complete execution environment for Extended MSQL. A Federation owns the
// Auxiliary Directory and Global Data Dictionary, talks to incorporated
// services through LAM clients over TCP, and executes MSQL
// scripts by running them through the full pipeline: multiple identifier
// substitution → disambiguation → decomposition → DOL plan generation →
// execution on the DOL engine.
//
// Synchronization points follow §3.2.2 of the paper: manipulation
// statements accumulate in a transaction unit that is synchronized (its
// vital set committed or rolled back/compensated) at an explicit COMMIT
// or ROLLBACK, at a scope change (USE), and at the end of the script.
// SELECT statements execute immediately; cross-database statements form
// their own unit.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"msql/internal/admit"
	"msql/internal/catalog"
	"msql/internal/dol"
	"msql/internal/dolengine"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/msqlparser"
	"msql/internal/mtlog"
	"msql/internal/multitable"
	"msql/internal/obs"
	"msql/internal/semvar"
	"msql/internal/sqlparser"
	"msql/internal/translate"
)

// Facade errors.
var (
	ErrNoClient    = errors.New("core: no client registered for site")
	ErrUnsupported = errors.New("core: unsupported at the multidatabase level")
	// ErrCapability rejects an INCORPORATE SERVICE declaration the
	// service's live capability profile contradicts — most importantly
	// COMMITMODE NOCOMMIT on a product that cannot prepare. Catching the
	// lie up front matters for presumed abort: a site without a 2PC
	// interface can never answer for a prepared session, so a
	// misdeclared profile would park multitransactions in-doubt forever
	// instead of failing their first synchronization cleanly.
	ErrCapability = errors.New("core: INCORPORATE declaration contradicts service capabilities")
)

// Facade metrics (see DESIGN.md §8).
var (
	mStatements = obs.Default().CounterVec("msql_statements_total",
		"MSQL statements executed, by verb.", "verb")
	mUnitOutcomes = obs.Default().CounterVec("msql_unit_outcomes_total",
		"Synchronized units (sync, global DML, multitransactions) by terminal GlobalState.", "state")
	mDegradedResults = obs.Default().Counter("msql_degraded_results_total",
		"Non-vital scope entries dropped from an answer because their site's circuit breaker was open.")
	mStmtLatency = obs.Default().HistogramVec("msql_stmt_latency_seconds",
		"MSQL statement wall time in seconds, by tenant and verb.", nil, "tenant", "verb")
)

// tenantLabel names a session's tenant for metric labels; the anonymous
// tenant gets a stable non-empty label.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "anonymous"
	}
	return tenant
}

// stmtText renders a statement for the query inventory and the
// slow-query log: full SQL for query-shaped statements, a short synthetic
// form for everything else.
func stmtText(stmt msqlparser.Stmt) string {
	switch st := stmt.(type) {
	case *msqlparser.QueryStmt:
		return sqlparser.Deparse(st.Body)
	case *msqlparser.ExplainStmt:
		var b strings.Builder
		b.WriteString("EXPLAIN ")
		if st.Analyze {
			b.WriteString("ANALYZE ")
		}
		if st.JSON {
			b.WriteString("FORMAT JSON ")
		}
		b.WriteString(sqlparser.Deparse(st.Query.Body))
		return b.String()
	case *msqlparser.UseStmt:
		names := make([]string, len(st.Entries))
		for i, e := range st.Entries {
			names[i] = e.Name()
			if e.Vital {
				names[i] += " VITAL"
			}
		}
		return "USE " + strings.Join(names, " ")
	case *msqlparser.MultiTxStmt:
		return fmt.Sprintf("BEGIN MULTITRANSACTION (%d statements)", len(st.Body))
	default:
		return strings.ToUpper(verbOf(stmt))
	}
}

// GlobalState classifies the outcome of a synchronized unit with respect
// to its vital set (§3.2.1).
type GlobalState uint8

// Global states.
const (
	// StateSuccess: every VITAL subquery committed.
	StateSuccess GlobalState = iota
	// StateAborted: every VITAL subquery rolled back or compensated.
	StateAborted
	// StateIncorrect: some VITAL subqueries committed and some did not —
	// the failure mode the vital-set machinery exists to prevent; it can
	// still surface on commit-time faults.
	StateIncorrect
	// StateUnresolved: some VITAL subquery is still in-doubt — its LAM
	// stayed unreachable through the bounded recovery loop, so the global
	// outcome is not yet known. The unit is neither Success nor Incorrect
	// until the participants in Result.Unresolved are driven to their
	// recorded decision (lam.Client.Resolve).
	StateUnresolved
)

func (s GlobalState) String() string {
	switch s {
	case StateSuccess:
		return "success"
	case StateAborted:
		return "aborted"
	case StateIncorrect:
		return "incorrect"
	case StateUnresolved:
		return "unresolved"
	default:
		return fmt.Sprintf("GlobalState(%d)", uint8(s))
	}
}

// ResultKind tags what a Result describes.
type ResultKind uint8

// Result kinds.
const (
	KindSelect ResultKind = iota
	KindSync              // a synchronized transaction unit
	KindGlobalDML
	KindMultiTx
	KindIncorporate
	KindImport
	KindNoop
	KindExplain // an EXPLAIN [ANALYZE] plan tree
)

// Result is the outcome of one MSQL statement (or synchronization point).
type Result struct {
	Kind ResultKind
	// Multitable holds SELECT partial results, one table per database.
	Multitable *multitable.Multitable
	// RowsAffected maps scope entry names to modified row counts.
	RowsAffected map[string]int
	// Status is the plan's DOLSTATUS return code.
	Status int
	// State classifies the vital-set outcome for sync/DML results.
	State GlobalState
	// TaskStates reports each entry's subquery outcome.
	TaskStates map[string]dol.TaskStatus
	// Compensated lists entries whose committed subqueries were undone by
	// compensating actions.
	Compensated []string
	// Skipped lists scope databases the query was not pertinent to.
	Skipped []semvar.Skip
	// DOL is the generated program text.
	DOL string
	// AchievedState is the acceptable termination state a
	// multitransaction reached, nil when it failed.
	AchievedState []string
	// TriggersFired lists interdatabase triggers executed after this
	// result's synchronization.
	TriggersFired []string
	// Mode records whether a sync result synchronized in commit or
	// rollback mode (meaningful for KindSync).
	Mode translate.SyncMode
	// Unresolved lists in-doubt participants the recovery loop could not
	// reach; non-empty only with State == StateUnresolved or when a
	// non-vital participant stayed in doubt.
	Unresolved []Participant
	// Degraded lists non-vital scope entries whose site's circuit
	// breaker was open: the multitable carries no partial result for
	// them, but the query still answered from the reachable sites.
	Degraded []DegradedEntry
	// Elapsed is the wall time of the statement that produced this
	// result (stamped by ExecScriptContext).
	Elapsed time.Duration
	// TraceID correlates this result with its trace in the tracer's ring
	// buffer (and in the LAM servers' tracers), empty when untraced.
	TraceID string
	// Plan is the federation plan tree of an EXPLAIN [ANALYZE] statement
	// (KindExplain), with per-site subtrees grafted under their task
	// nodes when analyzed. Nil for every other kind.
	Plan *obs.PlanNode
	// PlanJSON records the FORMAT JSON request of the EXPLAIN statement
	// that produced Plan, so renderers pick the right serialization.
	PlanJSON bool
}

// DegradedEntry names a scope entry missing from an answer and why.
type DegradedEntry struct {
	Entry  string
	Reason string
}

// Participant identifies an in-doubt remote transaction branch left
// behind by a synchronization point: the LAM to contact, the server-side
// session id, and the decision to deliver. Resolve it once the site is
// reachable again: lam.Dial(Addr), then Client.Resolve(SessionID, Commit).
type Participant struct {
	Entry     string // scope entry name
	Database  string
	Addr      string
	SessionID int64
	// Commit is the recorded synchronization-point decision.
	Commit bool
}

// Federation is the multidatabase system: the Auxiliary Directory, the
// Global Data Dictionary, the LAM clients of incorporated services, the
// DOL engine, and the durable coordinator journal. All of that is shared
// state, safe for concurrent use.
//
// Script execution happens in sessions (see Session): each client of the
// federation opens one with NewSession and runs scripts through it;
// independent sessions execute in parallel against the shared engine and
// journal. The Federation's own ExecScript/Flush/Scope methods operate on
// a lazily created default session, preserving the original
// one-user-one-Federation API — that default session, like any Session,
// is not safe for concurrent use.
type Federation struct {
	AD  *catalog.AD
	GDD *catalog.GDD

	mu      sync.Mutex
	clients map[string]lam.Client
	servers map[string]*ldbms.Server
	local   map[string]localLAM // by service name
	def     *Session            // lazily created default session for the legacy API

	tctx   *translate.Context
	engine *dolengine.Engine

	// DryRun translates plans without executing them (used by doldump).
	DryRun bool

	// CallTimeout bounds each remote LAM call made through lazily dialed
	// TCP clients; 0 sets no per-call bound, so only the statement's
	// deadline (StmtTimeout, or the caller's context) bounds a call. Set
	// it before the first statement touches a remote site.
	CallTimeout time.Duration

	// StmtTimeout bounds each statement's execution (including the
	// synchronization it triggers); 0 means unbounded. A statement that
	// overruns is canceled mid-flight — prepared participants are still
	// driven to their decision by the engine's recovery loop, which runs
	// on its own budget. Set it before serving sessions.
	StmtTimeout time.Duration

	// Tracer receives one trace per executed script (defaults to
	// obs.DefaultTracer). Set it before executing statements to direct
	// traces elsewhere, nil to disable tracing.
	Tracer *obs.Tracer

	// multidatabase-level definitions, shared across sessions
	defMu      sync.RWMutex
	multiviews map[string]*storedView
	triggers   map[string]*storedTrigger

	// admission gates statement execution across all sessions (nil runs
	// ungated). See internal/admit.
	admission *admit.Controller

	// durable-coordinator state (see journal.go)
	journal    *mtlog.Journal
	drainCh    <-chan struct{}
	breakerPol lam.BreakerPolicy
}

// storedView is a multidatabase view: a multiple query with the scope and
// LET bindings captured at definition time.
type storedView struct {
	scope []semvar.ScopeEntry
	lets  []msqlparser.LetBinding
	body  sqlparser.Statement
}

// storedTrigger is an interdatabase trigger definition.
type storedTrigger struct {
	name     string
	database string
	event    string
	scope    []semvar.ScopeEntry
	lets     []msqlparser.LetBinding
	query    *msqlparser.QueryStmt
}

// New creates an empty federation.
func New() *Federation {
	f := &Federation{
		AD:         catalog.NewAD(),
		GDD:        catalog.NewGDD(),
		clients:    make(map[string]lam.Client),
		servers:    make(map[string]*ldbms.Server),
		local:      make(map[string]localLAM),
		multiviews: make(map[string]*storedView),
		triggers:   make(map[string]*storedTrigger),
		Tracer:     obs.DefaultTracer,
	}
	f.tctx = &translate.Context{AD: f.AD, GDD: f.GDD}
	f.engine = dolengine.New(f)
	return f
}

// SetRecovery configures the bounded in-doubt resolution loop run after
// synchronization points whose commit/rollback decisions could not be
// delivered: policy paces the reconnect attempts per participant, timeout
// bounds each attempt.
func (f *Federation) SetRecovery(policy lam.RetryPolicy, timeout time.Duration) {
	f.engine.Recovery = policy
	f.engine.RecoverTimeout = timeout
}

// RegisterClient makes a LAM client reachable under a site or service
// name.
func (f *Federation) RegisterClient(key string, c lam.Client) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.clients[key] = c
}

// AddLocalServer serves an LDBMS (see ldbms.Open) on an ephemeral
// loopback port without a participant journal, and registers the
// dialed LAM client under its service name. Every federation reaches
// its services over the wire.
func (f *Federation) AddLocalServer(srv *ldbms.Server) (*ldbms.Server, error) {
	if _, err := f.ServeLocal(srv, "127.0.0.1:0", lam.ServeOptions{}); err != nil {
		return nil, err
	}
	return srv, nil
}

// localLAM is a LAM this federation serves itself; durable marks one
// with a participant journal, whose prepared sessions outlive us.
type localLAM struct {
	ts      *lam.TCPServer
	client  *lam.Remote
	durable bool
}

// ServeLocal serves srv at addr with opts, dials it, and registers the
// client under the service name and the listen address. A server this
// federation already serves for the service is closed first, so each
// service has one LAM.
func (f *Federation) ServeLocal(srv *ldbms.Server, addr string, opts lam.ServeOptions) (*lam.TCPServer, error) {
	f.mu.Lock()
	old, ok := f.local[srv.Name()]
	delete(f.local, srv.Name())
	f.mu.Unlock()
	if ok {
		old.client.Close()
		old.ts.Close()
	}
	ts, err := lam.ServeWith(addr, srv, opts)
	if err != nil {
		return nil, err
	}
	c, err := lam.DialWith(context.Background(), ts.Addr(), lam.DialOptions{})
	if err != nil {
		ts.Close()
		return nil, err
	}
	f.mu.Lock()
	f.clients[srv.Name()], f.clients[ts.Addr()] = c, c
	f.servers[srv.Name()] = srv
	f.local[srv.Name()] = localLAM{ts: ts, client: c, durable: opts.Journal != nil}
	f.mu.Unlock()
	return ts, nil
}

// ephemeral reports whether addr is a LAM this federation serves
// without a participant journal: its prepared sessions die with this
// process, so a restarted coordinator has nothing to reconnect to.
func (f *Federation) ephemeral(addr string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, l := range f.local {
		if !l.durable && l.ts.Addr() == addr {
			return true
		}
	}
	return false
}

// CloseServers closes every LAM client the federation holds — a client
// sends the END acknowledgments still queued for its site as it closes,
// while the site still listens — then the listeners of its local
// servers, then checkpoints and closes every local server's store.
// Memory-backed stores close as no-ops; disk-backed ones flush their
// buffer pools and catalogs so a later process can reopen the data
// directory.
func (f *Federation) CloseServers() error {
	f.mu.Lock()
	clients := make([]lam.Client, 0, len(f.clients))
	for _, c := range f.clients {
		clients = append(clients, c)
	}
	local := f.local
	f.local = make(map[string]localLAM)
	servers := make([]*ldbms.Server, 0, len(f.servers))
	for _, s := range f.servers {
		servers = append(servers, s)
	}
	f.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
	var first error
	for _, l := range local {
		l.client.Close()
		if err := l.ts.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range servers {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Server returns a previously added local server.
func (f *Federation) Server(name string) *ldbms.Server {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.servers[name]
}

// Resolve returns the client registered under a site or service name,
// dialling a host:port site lazily, with no deadline, on first use.
func (f *Federation) Resolve(site string) (lam.Client, error) {
	return f.ResolveContext(context.Background(), site)
}

// ResolveContext implements dolengine.Directory: Resolve with the lazy
// dial bounded by ctx, the plan's or recovery round's deadline.
func (f *Federation) ResolveContext(ctx context.Context, site string) (lam.Client, error) {
	f.mu.Lock()
	if c, ok := f.clients[site]; ok {
		f.mu.Unlock()
		return c, nil
	}
	pol := f.breakerPol
	f.mu.Unlock()
	if strings.Contains(site, ":") {
		c, err := lam.DialWith(ctx, site, lam.DialOptions{CallTimeout: f.CallTimeout, Breaker: pol})
		if err != nil {
			return nil, fmt.Errorf("%w: %s (%w)", ErrNoClient, site, err)
		}
		f.RegisterClient(site, c)
		return c, nil
	}
	return nil, fmt.Errorf("%w: %s", ErrNoClient, site)
}

// liveProfile fetches the capability profile behind a service entry
// when a client is already registered (under the service or site name)
// or the site is dialable. ok=false means no client could be reached —
// the declaration is then taken on trust, as the AD always did before
// runtime registration existed.
func (f *Federation) liveProfile(ctx context.Context, entry catalog.ServiceEntry) (ldbms.Profile, bool) {
	f.mu.Lock()
	c, found := f.clients[entry.Name]
	if !found && entry.Site != "" {
		c, found = f.clients[entry.Site]
	}
	f.mu.Unlock()
	if !found && entry.Site != "" && strings.Contains(entry.Site, ":") {
		rc, err := f.ResolveContext(ctx, entry.Site)
		if err != nil {
			return ldbms.Profile{}, false
		}
		c = rc
	}
	if c == nil {
		return ldbms.Profile{}, false
	}
	p, err := c.Profile(ctx)
	if err != nil {
		return ldbms.Profile{}, false
	}
	return p, true
}

// checkIncorporate validates an INCORPORATE declaration against the
// service's live profile and folds undeclared autocommit classes into
// the entry. A service declared COMMITMODE NOCOMMIT whose product
// cannot prepare is rejected with ErrCapability: under presumed abort
// such a site could never resolve a parked session, so it must refuse
// the 2PC role up front. Autocommit classes the profile reports (the
// Ingres DDL quirk) are merged into DDLCommit so the translator demands
// compensation even when the administrator's declaration missed them.
func (f *Federation) checkIncorporate(ctx context.Context, entry *catalog.ServiceEntry) error {
	p, ok := f.liveProfile(ctx, *entry)
	if !ok {
		return nil
	}
	if !entry.AutoCommitOnly && !p.TwoPC {
		return fmt.Errorf("%w: service %s declared COMMITMODE NOCOMMIT but product %q has no prepare interface (%w); incorporate it with COMMITMODE COMMIT",
			ErrCapability, entry.Name, p.Name, ldbms.ErrNoTwoPC)
	}
	for class, on := range p.AutoCommitClasses {
		if !on {
			continue
		}
		if entry.DDLCommit == nil {
			entry.DDLCommit = make(map[string]bool)
		}
		entry.DDLCommit[class.String()] = true
	}
	return nil
}

// clientFor returns the LAM client of an incorporated service.
func (f *Federation) clientFor(ctx context.Context, service string) (lam.Client, error) {
	entry, err := f.AD.Lookup(service)
	if err != nil {
		return nil, err
	}
	if entry.Site != "" {
		if c, err := f.ResolveContext(ctx, entry.Site); err == nil {
			return c, nil
		}
	}
	return f.ResolveContext(ctx, service)
}

// NewSession opens an independent script-execution session on the
// federation. Sessions carry the per-client state (USE scope, LET
// bindings, the pending transaction unit, trigger re-entrancy) and may
// run concurrently with one another; a single Session is not safe for
// concurrent use. tenant names the client for admission control; empty
// is the anonymous tenant.
func (f *Federation) NewSession(tenant string) *Session {
	return &Session{f: f, tenant: tenant}
}

// SetAdmission installs an admission controller gating every session's
// statement execution (nil removes the gate). Install it before serving
// concurrent sessions.
func (f *Federation) SetAdmission(c *admit.Controller) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.admission = c
}

// admitCtl returns the installed admission controller (possibly nil).
func (f *Federation) admitCtl() *admit.Controller {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.admission
}

// defaultSession returns the session behind the Federation's legacy
// single-user API, creating it on first use.
func (f *Federation) defaultSession() *Session {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.def == nil {
		f.def = &Session{f: f}
	}
	return f.def
}

// Scope returns the default session's current USE scope.
func (f *Federation) Scope() []semvar.ScopeEntry {
	return f.defaultSession().Scope()
}

// ExecScript parses and executes an MSQL script in the default session,
// returning one Result per produced outcome (statements and
// synchronization points). Execution stops at the first error; results
// produced so far are returned.
func (f *Federation) ExecScript(src string) ([]*Result, error) {
	return f.defaultSession().ExecScriptContext(context.Background(), src)
}

// ExecScriptContext is ExecScript under a context: the deadline bounds
// every remote LAM call the script makes, and cancellation fails
// in-flight subqueries. In-doubt resolution after a lost connection runs
// on its own bounded budget (the engine's recovery policy), not ctx —
// commit/rollback decisions for prepared participants must be delivered
// even when the script deadline has expired.
func (f *Federation) ExecScriptContext(ctx context.Context, src string) ([]*Result, error) {
	return f.defaultSession().ExecScriptContext(ctx, src)
}

// verbOf names a statement for the per-verb statement counter and the
// statement span.
func verbOf(stmt msqlparser.Stmt) string {
	switch st := stmt.(type) {
	case *msqlparser.UseStmt:
		return "use"
	case *msqlparser.LetStmt:
		return "let"
	case *msqlparser.QueryStmt:
		switch st.Body.(type) {
		case *sqlparser.SelectStmt:
			return "select"
		case *sqlparser.InsertStmt:
			return "insert"
		case *sqlparser.UpdateStmt:
			return "update"
		case *sqlparser.DeleteStmt:
			return "delete"
		case *sqlparser.CreateTableStmt, *sqlparser.CreateViewStmt:
			return "create"
		case *sqlparser.DropTableStmt, *sqlparser.DropViewStmt:
			return "drop"
		default:
			return "query"
		}
	case *msqlparser.ExplainStmt:
		return "explain"
	case *msqlparser.CommitStmt:
		return "commit"
	case *msqlparser.RollbackStmt:
		return "rollback"
	case *msqlparser.MultiTxStmt:
		return "multitx"
	case *msqlparser.IncorporateStmt:
		return "incorporate"
	case *msqlparser.ImportStmt:
		return "import"
	case *msqlparser.CreateMultidatabaseStmt, *msqlparser.CreateMultiviewStmt, *msqlparser.CreateTriggerStmt:
		return "define"
	case *msqlparser.DropMultidatabaseStmt, *msqlparser.DropMultiviewStmt, *msqlparser.DropTriggerStmt:
		return "undefine"
	default:
		return "other"
	}
}

// defineMultiview stores a multiview definition (shared across sessions).
func (f *Federation) defineMultiview(name string, v *storedView) {
	f.defMu.Lock()
	defer f.defMu.Unlock()
	f.multiviews[name] = v
}

// dropMultiview removes a multiview definition.
func (f *Federation) dropMultiview(name string) error {
	f.defMu.Lock()
	defer f.defMu.Unlock()
	if _, ok := f.multiviews[name]; !ok {
		return fmt.Errorf("core: no multiview %s", name)
	}
	delete(f.multiviews, name)
	return nil
}

// defineTrigger stores an interdatabase trigger (shared across sessions).
func (f *Federation) defineTrigger(name string, t *storedTrigger) {
	f.defMu.Lock()
	defer f.defMu.Unlock()
	f.triggers[name] = t
}

// dropTrigger removes a trigger definition.
func (f *Federation) dropTrigger(name string) error {
	f.defMu.Lock()
	defer f.defMu.Unlock()
	if _, ok := f.triggers[name]; !ok {
		return fmt.Errorf("core: no trigger %s", name)
	}
	delete(f.triggers, name)
	return nil
}

// triggerSnapshot returns the current trigger definitions. The returned
// map is a copy; the definitions themselves are immutable once stored.
func (f *Federation) triggerSnapshot() map[string]*storedTrigger {
	f.defMu.RLock()
	defer f.defMu.RUnlock()
	if len(f.triggers) == 0 {
		return nil
	}
	out := make(map[string]*storedTrigger, len(f.triggers))
	for k, v := range f.triggers {
		out[k] = v
	}
	return out
}

// dedupeScope drops repeated scope entries (same name), keeping the
// first occurrence but letting a later VITAL designator strengthen it.
func dedupeScope(entries []semvar.ScopeEntry) []semvar.ScopeEntry {
	seen := map[string]int{}
	var out []semvar.ScopeEntry
	for _, e := range entries {
		if i, ok := seen[e.Name]; ok {
			if e.Vital {
				out[i].Vital = true
			}
			continue
		}
		seen[e.Name] = len(out)
		out = append(out, e)
	}
	return out
}

// expandScope replaces multidatabase names in a scope by their members,
// propagating the VITAL designator. Aliases cannot attach to a
// multidatabase (the expansion would make them ambiguous).
func (f *Federation) expandScope(entries []semvar.ScopeEntry) ([]semvar.ScopeEntry, error) {
	var out []semvar.ScopeEntry
	for _, e := range entries {
		members, ok := f.GDD.Multidatabase(e.Database)
		if !ok {
			out = append(out, e)
			continue
		}
		if e.Name != e.Database {
			return nil, fmt.Errorf("core: multidatabase %s cannot take alias %s", e.Database, e.Name)
		}
		for _, m := range members {
			out = append(out, semvar.ScopeEntry{Database: m, Name: m, Vital: e.Vital})
		}
	}
	return out, nil
}

// printPlan materializes the DOL program text under a plan span.
func printPlan(ctx context.Context, prog *dol.Program) string {
	sp, _ := obs.StartSpan(ctx, "plan", obs.KindPlan)
	defer sp.End()
	return dol.Print(prog)
}

func resultList(rs ...*Result) []*Result {
	var out []*Result
	for _, r := range rs {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// Flush synchronizes the default session's pending unit in commit mode.
// It returns nil when nothing is pending.
func (f *Federation) Flush() (*Result, error) {
	return f.defaultSession().Flush()
}

// dropProvisional removes translation-time GDD entries whose creating
// task did not commit (out == nil removes all, for dry runs and engine
// failures).
func (f *Federation) dropProvisional(meta *translate.Meta, out *dolengine.Outcome) {
	for _, p := range meta.Provisional {
		if out != nil && out.TaskStatus(p.TaskName) == dol.StatusCommitted {
			continue
		}
		_ = f.GDD.DropTable(p.Database, p.Table)
	}
}

// fillFromOutcome copies task states and classifies the vital outcome.
func (f *Federation) fillFromOutcome(res *Result, meta *translate.Meta, out *dolengine.Outcome) {
	res.Status = out.Status
	// Map unresolved in-doubt participants from task names to scope
	// entries so callers can identify and later resolve them.
	entryOf := make(map[string]translate.TaskMeta, len(meta.Tasks))
	for _, tm := range meta.Tasks {
		entryOf[tm.Name] = tm
	}
	for _, u := range out.Unresolved {
		p := Participant{Addr: u.Addr, SessionID: u.SessionID, Commit: u.Commit, Database: u.Database}
		if tm, ok := entryOf[u.Task]; ok {
			p.Entry = tm.Entry.Name
		}
		res.Unresolved = append(res.Unresolved, p)
	}
	res.TaskStates = make(map[string]dol.TaskStatus)
	res.RowsAffected = make(map[string]int)
	compDone := map[string]bool{}
	for _, tm := range meta.Tasks {
		st := out.TaskStatus(tm.Name)
		if tm.Role == translate.RoleComp {
			if st == dol.StatusCommitted {
				compDone[tm.Entry.Name] = true
				res.Compensated = append(res.Compensated, tm.Entry.Name)
			}
			continue
		}
		res.TaskStates[tm.Entry.Name] = st
		if info, ok := out.Tasks[tm.Name]; ok {
			res.RowsAffected[tm.Entry.Name] += info.RowsAffected
		}
	}
	// Classify with respect to the vital set.
	if len(meta.VitalNames) == 0 {
		res.State = StateSuccess
		return
	}
	committed, undone, indoubt := 0, 0, 0
	for _, name := range meta.VitalNames {
		st := res.TaskStates[name]
		switch {
		case st == dol.StatusInDoubt:
			indoubt++
		case st == dol.StatusCommitted && !compDone[name]:
			committed++
		default:
			undone++
		}
	}
	switch {
	case indoubt > 0:
		// A vital participant's fate is unknown: refuse to call the unit
		// either Success or Incorrect until it is resolved.
		res.State = StateUnresolved
	case undone == 0:
		res.State = StateSuccess
	case committed == 0:
		res.State = StateAborted
	default:
		res.State = StateIncorrect
	}
}

// maintainGDD applies committed DDL to the dictionary.
func (f *Federation) maintainGDD(meta *translate.Meta, out *dolengine.Outcome) {
	for _, tm := range meta.Tasks {
		if tm.Role == translate.RoleComp || out.TaskStatus(tm.Name) != dol.StatusCommitted {
			continue
		}
		switch st := tm.Stmt.(type) {
		case *sqlparser.CreateTableStmt:
			_ = f.GDD.PutTable(tm.Entry.Database, catalog.TableDef{Name: st.Table.Last(), Columns: st.Columns})
		case *sqlparser.DropTableStmt:
			_ = f.GDD.DropTable(tm.Entry.Database, st.Table.Last())
		}
	}
}

// matchMultiview recognizes the multiview invocation form
// SELECT * FROM <name> where <name> is a defined multidatabase view.
func (f *Federation) matchMultiview(sel *sqlparser.SelectStmt) *storedView {
	if len(sel.From) != 1 || len(sel.From[0].Name.Parts) != 1 || sel.From[0].Alias != "" {
		return nil
	}
	f.defMu.RLock()
	view, ok := f.multiviews[sel.From[0].Name.Parts[0]]
	f.defMu.RUnlock()
	if !ok {
		return nil
	}
	plainStar := len(sel.Items) == 1 && sel.Items[0].Star && sel.Items[0].Qualifier == ""
	if !plainStar || sel.Where != nil || sel.GroupBy != nil || sel.Having != nil ||
		sel.OrderBy != nil || sel.Limit >= 0 || sel.Distinct {
		return nil
	}
	return view
}

// assembleMultitable copies the partial results of read tasks (or the
// final coordinator task) into the result's multitable.
func (f *Federation) assembleMultitable(res *Result, meta *translate.Meta, out *dolengine.Outcome) error {
	res.Status = out.Status
	res.TaskStates = make(map[string]dol.TaskStatus)
	mt := &multitable.Multitable{}
	for _, tm := range meta.Tasks {
		st := out.TaskStatus(tm.Name)
		res.TaskStates[tm.Entry.Name] = st
		isResultTask := tm.Role == translate.RoleRead && meta.FinalTask == "" ||
			tm.Name == meta.FinalTask
		if !isResultTask {
			continue
		}
		info := out.Tasks[tm.Name]
		if info == nil || info.Result == nil {
			if info != nil && info.Err != nil {
				// A breaker-open site degrades a non-vital entry to an
				// absent partial result; everything else still fails the
				// query (an unreachable site whose breaker has not tripped
				// is an error, not a silent hole in the answer).
				if errors.Is(info.Err, lam.ErrBreakerOpen) && !tm.Entry.Vital {
					res.Degraded = append(res.Degraded, DegradedEntry{
						Entry:  tm.Entry.Name,
						Reason: info.Err.Error(),
					})
					mDegradedResults.Inc()
					continue
				}
				return fmt.Errorf("core: subquery on %s failed: %w", tm.Entry.Name, info.Err)
			}
			continue
		}
		label := tm.Entry.Name
		if tm.Name == meta.FinalTask {
			label = meta.FinalLabel
		}
		mt.Tables = append(mt.Tables, multitable.Table{
			Database: label,
			Columns:  info.Result.Columns,
			Rows:     info.Result.Rows,
		})
	}
	res.Multitable = mt
	return nil
}
