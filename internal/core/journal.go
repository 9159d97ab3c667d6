package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"msql/internal/dol"
	"msql/internal/dolengine"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/obs"
	"msql/internal/sqlparser"
	"msql/internal/translate"
)

// ErrDrained reports that script execution stopped at a statement
// boundary because the federation's drain channel fired: the pending
// unit was synchronized first, so no statement was cut off mid-2PC.
var ErrDrained = errors.New("core: script execution drained")

// SetJournal attaches a write-ahead multitransaction journal. Every
// plan that writes (a synchronized unit, global DML statement,
// multitransaction, trigger or EXPLAIN ANALYZE write) run after the
// call is journaled: begin record with the plan's task
// topology, synchronization-point decisions with the prepared
// participants they cover (durable before the first COMMIT is
// delivered), terminal outcomes, and an end record once fully terminal.
// Recover replays the journal after a crash.
func (f *Federation) SetJournal(j *mtlog.Journal) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.journal = j
}

// Journal returns the attached journal, nil when none is set.
func (f *Federation) Journal() *mtlog.Journal {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.journal
}

// SetDrain installs a drain signal: once ch is closed (or receives),
// ExecScriptContext stops before the next statement, synchronizes the
// pending unit, and returns ErrDrained. A SIGINT handler uses this to
// wind down cleanly instead of dying inside a 2PC window.
func (f *Federation) SetDrain(ch <-chan struct{}) {
	f.drainCh = ch
}

// draining reports whether the drain signal has fired.
func (f *Federation) draining() bool {
	if f.drainCh == nil {
		return false
	}
	select {
	case <-f.drainCh:
		return true
	default:
		return false
	}
}

// SetBreaker installs a circuit-breaker policy (lam.DialOptions.Breaker)
// for the LAM clients the federation dials itself (host:port sites
// resolved lazily). Clients registered explicitly keep their own.
func (f *Federation) SetBreaker(pol lam.BreakerPolicy) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.breakerPol = pol
}

// txJournal adapts the journal to the engine's TxLog for one plan run.
type txJournal struct {
	f    *Federation
	j    *mtlog.Journal
	mtid uint64
}

// Decision journals a decision with its branches: each vote's re-attach
// address, or none for a LAM this federation serves without a
// participant journal — such a session dies with the coordinator, so
// Recover records it aborted instead of dialing a port nobody listens on
// any more.
func (t *txJournal) Decision(commit bool, tasks []string, votes []dolengine.Vote) error {
	rec := &mtlog.Record{Type: mtlog.TDecision, MTID: t.mtid, Commit: commit, Decided: tasks}
	for _, v := range votes {
		addr := v.Addr
		if t.f.ephemeral(addr) {
			addr = ""
		}
		rec.Branches = append(rec.Branches, mtlog.Branch{Task: v.Task, Addr: addr, SessionID: v.SessionID})
	}
	return t.j.Append(rec)
}

// TaskOutcome journals a terminal status; the journal's statuses keep
// the engine's values.
func (t *txJournal) TaskOutcome(task string, st dol.TaskStatus) {
	_ = t.j.Append(&mtlog.Record{Type: mtlog.TOutcome, MTID: t.mtid, Task: task, Status: uint8(st)})
}

// siteOf resolves a database to the site its LAM is reachable at (the
// AD site, falling back to the service name its client is registered
// under).
func (f *Federation) siteOf(db string) string {
	svc, err := f.GDD.ServiceOf(db)
	if err != nil {
		return ""
	}
	if e, err := f.AD.Lookup(svc); err == nil && e.Site != "" {
		return e.Site
	}
	return svc
}

// readPlan reports whether a plan only reads: each of its tasks is a
// partial-result read or a final SELECT at the coordinator. Such a plan
// assembles a multitable and leaves no decision to recover.
func readPlan(meta *translate.Meta) bool {
	for _, tm := range meta.Tasks {
		_, sel := tm.Stmt.(*sqlparser.SelectStmt)
		if tm.Role != translate.RoleRead && (tm.Role != translate.RoleFinal || !sel) {
			return false
		}
	}
	return true
}

// runPlan is where every DOL program runs, under the named span. A
// write plan is journaled when a journal is attached: a begin record
// with the task topology goes in before the engine starts, the engine
// reports decision/outcome records through a txJournal, and an end
// record closes the multitransaction when nothing is left unresolved. A
// read plan appends nothing. A fully terminal plan, journaled or not,
// then acknowledges its prepared participants; the acknowledgments ride
// each site's next request.
func (f *Federation) runPlan(ctx context.Context, span string, prog *dol.Program, meta *translate.Meta) (out *dolengine.Outcome, err error) {
	sp, ctx := obs.StartSpan(ctx, span, obs.KindEngine)
	defer func() { sp.EndErr(err) }()
	j := f.Journal()
	var log dolengine.TxLog
	var mtid uint64
	if j != nil && !readPlan(meta) {
		begin := &mtlog.Record{Type: mtlog.TBegin, MTID: j.NextID(), Kind: strings.TrimPrefix(span, "execute:")}
		for _, tm := range meta.Tasks {
			d := mtlog.TaskDecl{
				Name:     tm.Name,
				Entry:    tm.Entry.Name,
				Database: tm.Entry.Database,
				Site:     f.siteOf(tm.Entry.Database),
				Vital:    tm.Entry.Vital,
				Comp:     tm.For != "",
				ForTask:  tm.For,
			}
			if d.Comp {
				d.SQL = sqlparser.Deparse(tm.Stmt)
			}
			begin.Tasks = append(begin.Tasks, d)
		}
		if err := j.Append(begin); err != nil {
			return nil, fmt.Errorf("core: journal begin: %w", err)
		}
		// The multitransaction id rides to participants on every prepare,
		// so their journals correlate with ours, and onto the statement's
		// query inventory record so /debug/queries and the slow-query log
		// carry it.
		mtid = begin.MTID
		ctx = lam.WithMTID(ctx, mtid)
		obs.DefaultQueries.SetMTID(obs.QueryIDFrom(ctx), mtid)
		log = &txJournal{f: f, j: j, mtid: mtid}
	}
	out, err = f.engine.RunLogged(ctx, prog, log)
	if terminal(meta, out, err) {
		if log != nil {
			_ = j.Append(&mtlog.Record{
				Type: mtlog.TEnd, MTID: mtid, State: "status=" + strconv.Itoa(out.Status),
			})
		}
		f.engine.Forget(ctx, out.Prepared)
	}
	return out, err
}

// terminal reports whether a plan run left nothing open: no engine
// error, no unresolved participant, no compensation owed. Its END
// acknowledgments may then tell every once-prepared participant to
// forget the session. They are best-effort — a lost ack is backstopped
// by the participant's tombstone TTL. A unit that owes a compensation
// stays open in the journal, so Recover finishes it.
func terminal(meta *translate.Meta, out *dolengine.Outcome, err error) bool {
	return err == nil && out != nil && len(out.Unresolved) == 0 &&
		!slices.ContainsFunc(planStanding(meta, out), func(sq subquery) bool { return sq.fate == owed })
}

// RecoveryReport summarizes one journal recovery pass.
type RecoveryReport struct {
	// Multitransactions counts the journaled multitransactions that were
	// not yet ended and so were examined.
	Multitransactions int
	// Resolved lists in-doubt participants driven to their logged
	// decision (presumed abort when none was logged).
	Resolved []Participant
	// Unreachable lists participants that stayed unreachable; their
	// multitransactions remain open in the journal for a later pass.
	Unreachable []Participant
	// CompRuns names the compensation tasks re-run by this pass.
	CompRuns []string
	// Compacted counts the fully-terminal multitransactions dropped from
	// the journal.
	Compacted int
	// Orphans lists the participant-side prepared sessions no open
	// multitransaction covers, rolled back by the sweep.
	Orphans []Participant
}

// Recover terminates everything a coordinator restart left open, in one
// call made before the federation accepts sessions. First it replays the
// attached journal: every branch a decision names (or, in a journal
// written before decisions named them, every prepared record) without a
// terminal outcome is driven to its logged decision (re-attaching
// through wire.ReqAttach; tasks no commit decision covers are presumed
// aborted), compensations still owed for committed subqueries of aborted
// units are re-run, units that become fully terminal get end records,
// and the journal is compacted.
//
// Then it sweeps orphans: every incorporated remote site is asked for its
// in-doubt sessions, and each one no open multitransaction's branches
// cover is rolled back and acknowledged. The coordinator journals a vote
// only in the decision that covers it, so a crash between the votes and
// the decision's fsync leaves participants holding locks for sessions
// the journal never heard of: the sweep is what ends such a unit. The
// write-ahead rule makes it safe: a commit is delivered only after the
// decision naming the session is durable, so a session absent from the
// journal was never promised a commit. The sweep runs before any unit is
// in flight; one that ran beside live units would have to count their
// votes, held in memory, as covered too. A site the sweep cannot reach is
// reported as the returned error, together with the report; a later call
// retries it.
//
// Recover is idempotent: a second call finds nothing to do.
func (f *Federation) Recover(ctx context.Context) (*RecoveryReport, error) {
	j := f.Journal()
	if j == nil {
		return nil, errors.New("core: Recover requires a journal (SetJournal)")
	}
	states, err := j.States()
	if err != nil {
		return nil, err
	}
	rep := &RecoveryReport{}
	for _, s := range states {
		if s.Ended {
			continue
		}
		rep.Multitransactions++
		clean := true

		// Prepared participants without a terminal outcome hold locks at
		// their LAM: deliver the logged decision, presumed abort otherwise.
		// The journal appends follow serially, in deterministic order.
		var (
			tasks []string
			parts []Participant
			bs    []dolengine.Branch
		)
		for task, b := range s.Branches {
			if _, done := s.Outcomes[task]; done {
				continue
			}
			commit, _ := s.DecisionFor(task)
			if b.Addr == "" {
				// The session's LAM was served by the coordinator's own
				// process without a participant journal: it died with the
				// coordinator and took the session with it; record the abort.
				f.appendOutcome(s.MTID, task, mtlog.StatusAborted)
				s.Outcomes[task] = mtlog.StatusAborted
				continue
			}
			p := Participant{Addr: b.Addr, SessionID: b.SessionID, Commit: commit}
			if d, ok := s.Decl(task); ok {
				p.Entry, p.Database = d.Entry, d.Database
			}
			tasks = append(tasks, task)
			parts = append(parts, p)
			bs = append(bs, dolengine.Branch{Site: p.Addr, SessionID: p.SessionID, Commit: commit})
		}
		sts, errs := f.engine.ResolveAll(ctx, bs)
		for i, task := range tasks {
			if errs[i] != nil {
				clean = false
				rep.Unreachable = append(rep.Unreachable, parts[i])
				continue
			}
			u := mtlog.StatusAborted
			if sts[i] == ldbms.StateCommitted {
				u = mtlog.StatusCommitted
			}
			f.appendOutcome(s.MTID, task, u)
			s.Outcomes[task] = u
			rep.Resolved = append(rep.Resolved, parts[i])
		}

		// Compensations owed, by the rule the unit settled by, read off the
		// journal (a unit with no commit decision is presumed aborted): one
		// COMP copy runs per owed subquery.
		if s.Begin != nil {
			decls := s.Begin.Tasks
			for _, sq := range standing(len(decls), func(i int) (string, string) { return decls[i].Name, decls[i].ForTask },
				func(task string) dol.TaskStatus { return dol.TaskStatus(s.Outcomes[task]) }, !s.CommitDecided()) {
				if sq.fate != owed {
					continue
				}
				d, _ := s.Decl(sq.comps[0])
				if cerr := f.runComp(ctx, d); cerr != nil {
					clean = false
					continue
				}
				f.appendOutcome(s.MTID, d.Name, mtlog.StatusCommitted)
				s.Outcomes[d.Name] = mtlog.StatusCommitted
				rep.CompRuns = append(rep.CompRuns, d.Name)
			}
		}

		if clean {
			_ = j.Append(&mtlog.Record{Type: mtlog.TEnd, MTID: s.MTID, State: "recovered"})
			s.Ended = true
			// The unit is fully terminal: acknowledge every once-prepared
			// remote participant so tombstones and participant journals
			// can be reclaimed.
			var acks []dolengine.Vote
			for _, b := range s.Branches {
				if b.Addr != "" {
					acks = append(acks, dolengine.Vote{Site: b.Addr, SessionID: b.SessionID})
				}
			}
			actx, cancel := context.WithTimeout(ctx, f.engine.RecoverTimeout)
			f.engine.Forget(actx, acks)
			cancel()
		}
	}
	dropped, err := j.Compact()
	if err != nil {
		return rep, err
	}
	rep.Compacted = dropped

	covered := make(map[dolengine.Branch]bool)
	for _, s := range states {
		if !s.Ended {
			for _, b := range s.Branches {
				covered[dolengine.Branch{Site: b.Addr, SessionID: b.SessionID}] = true
			}
		}
	}
	var sites []string
	seen := make(map[string]bool)
	for _, name := range f.AD.Names() {
		// A service served on an ephemeral loopback port has no AD site:
		// its sessions died with us.
		if e, err := f.AD.Lookup(name); err == nil && e.Site != "" && !seen[e.Site] {
			seen[e.Site] = true
			sites = append(sites, e.Site)
		}
	}
	swept, err := f.engine.SweepOrphans(ctx, sites, covered)
	for _, b := range swept {
		rep.Orphans = append(rep.Orphans, Participant{Addr: b.Site, SessionID: b.SessionID})
	}
	return rep, err
}

// appendOutcome journals a terminal status reached during recovery.
func (f *Federation) appendOutcome(mtid uint64, task string, st uint8) {
	_ = f.journal.Append(&mtlog.Record{Type: mtlog.TOutcome, MTID: mtid, Task: task, Status: st})
}

// runComp replays one compensating subquery from its journal
// declaration: open a session on the task's site, execute the deparsed
// compensation, commit.
func (f *Federation) runComp(ctx context.Context, d mtlog.TaskDecl) error {
	site := d.Site
	if site == "" {
		site = f.siteOf(d.Database)
	}
	if site == "" {
		return fmt.Errorf("core: no site for compensation %s", d.Name)
	}
	client, err := f.ResolveContext(ctx, site)
	if err != nil {
		return err
	}
	sess, err := client.Open(ctx, d.Database)
	if err != nil {
		return err
	}
	defer sess.Close()
	if _, err := sess.Exec(ctx, d.SQL); err != nil {
		return err
	}
	return sess.Commit(ctx)
}
