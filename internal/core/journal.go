package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

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
// synchronized unit, global DML statement, and multitransaction run
// after the call is journaled: begin record with the plan's task
// topology, prepared participants, synchronization-point decisions
// (durable before the first COMMIT is delivered), terminal outcomes,
// and an end record once fully terminal. Recover replays the journal
// after a crash.
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

// SetBreaker installs a circuit-breaker policy for LAM clients the
// federation dials itself (host:port sites resolved lazily). Clients
// registered explicitly are used as-is; wrap them with lam.WithBreaker
// to gate them too.
func (f *Federation) SetBreaker(pol lam.BreakerPolicy) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.breakerPol = &pol
}

// Breaker returns the circuit breaker wrapping the client registered
// under key, nil when that client has none.
func (f *Federation) Breaker(key string) *lam.BreakerClient {
	f.mu.Lock()
	defer f.mu.Unlock()
	if b, ok := f.clients[key].(*lam.BreakerClient); ok {
		return b
	}
	return nil
}

// txJournal adapts the journal to the engine's TxLog for one plan run.
// It also collects the remote participants that prepared, so the
// end-of-multitransaction acknowledgment round (lam.Forget) can release
// their tombstones and journal entries once the unit is fully terminal.
type txJournal struct {
	j    *mtlog.Journal
	mtid uint64

	mu       sync.Mutex
	prepared []Participant
}

func (t *txJournal) TaskPrepared(task, addr string, sessionID int64) {
	_ = t.j.Append(&mtlog.Record{
		Type: mtlog.TPrepared, MTID: t.mtid, Task: task, Addr: addr, SessionID: sessionID,
	})
	if addr != "" {
		t.mu.Lock()
		t.prepared = append(t.prepared, Participant{Addr: addr, SessionID: sessionID})
		t.mu.Unlock()
	}
}

func (t *txJournal) participants() []Participant {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Participant(nil), t.prepared...)
}

func (t *txJournal) Decision(commit bool, tasks []string) error {
	return t.j.Append(&mtlog.Record{
		Type: mtlog.TDecision, MTID: t.mtid, Commit: commit, Decided: tasks,
	})
}

func (t *txJournal) TaskOutcome(task string, st dol.TaskStatus) {
	var u uint8
	switch st {
	case dol.StatusCommitted:
		u = mtlog.StatusCommitted
	case dol.StatusAborted:
		u = mtlog.StatusAborted
	default:
		u = mtlog.StatusError
	}
	_ = t.j.Append(&mtlog.Record{Type: mtlog.TOutcome, MTID: t.mtid, Task: task, Status: u})
}

// siteOf resolves a database to the site its LAM is reachable at (the
// AD site, falling back to the service name for in-process clients).
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

// runPlan executes a manipulation plan, journaling it when a journal is
// attached: a begin record with the task topology goes in before the
// engine starts, the engine reports prepared/decision/outcome records
// through a txJournal, and an end record closes the multitransaction
// when nothing is left unresolved.
func (f *Federation) runPlan(ctx context.Context, kind string, prog *dol.Program, meta *translate.Meta) (*dolengine.Outcome, error) {
	sp, ctx := obs.StartSpan(ctx, "execute:"+kind, obs.KindEngine)
	out, err := f.runPlanTraced(ctx, kind, prog, meta)
	sp.EndErr(err)
	return out, err
}

func (f *Federation) runPlanTraced(ctx context.Context, kind string, prog *dol.Program, meta *translate.Meta) (*dolengine.Outcome, error) {
	j := f.Journal()
	if j == nil {
		return f.engine.Run(ctx, prog)
	}
	begin := &mtlog.Record{Type: mtlog.TBegin, MTID: j.NextID(), Kind: kind}
	for _, tm := range meta.Tasks {
		d := mtlog.TaskDecl{
			Name:     tm.Name,
			Entry:    tm.Entry.Name,
			Database: tm.Entry.Database,
			Site:     f.siteOf(tm.Entry.Database),
			Vital:    tm.Entry.Vital,
		}
		if tm.Role == translate.RoleComp {
			d.Comp = true
			d.ForTask = meta.TaskFor(tm.Entry.Name)
			if tm.Stmt != nil {
				d.SQL = sqlparser.Deparse(tm.Stmt)
			}
		}
		begin.Tasks = append(begin.Tasks, d)
	}
	if err := j.Append(begin); err != nil {
		return nil, fmt.Errorf("core: journal begin: %w", err)
	}
	// The multitransaction id rides to participants on every prepare, so
	// their journals correlate with ours, and onto the statement's query
	// inventory record so /debug/queries and the slow-query log carry it.
	ctx = lam.WithMTID(ctx, begin.MTID)
	obs.DefaultQueries.SetMTID(obs.QueryIDFrom(ctx), begin.MTID)
	tj := &txJournal{j: j, mtid: begin.MTID}
	out, err := f.engine.RunLogged(ctx, prog, tj)
	if err == nil && out != nil && len(out.Unresolved) == 0 && !compOwed(meta, out) {
		_ = j.Append(&mtlog.Record{
			Type: mtlog.TEnd, MTID: begin.MTID, State: "status=" + strconv.Itoa(out.Status),
		})
		// END acknowledgment round: every once-prepared participant may now
		// forget the session. Best-effort — a lost ack is backstopped by
		// the participant's tombstone TTL.
		f.ackParticipants(tj.participants())
	}
	return out, err
}

// ackParticipants tells once-prepared participants their
// multitransaction is fully terminal (wire.ReqForget), releasing their
// tombstones and letting their journals compact. Failures are ignored:
// the acknowledgment is an optimization, not a correctness requirement.
// The round sits inside the client-observed latency of a 2PC unit and
// every ack is a fresh dial, so the acks go out concurrently (at most
// recoverFanout at a time) and the call returns once all have answered.
func (f *Federation) ackParticipants(parts []Participant) {
	seen := make(map[string]bool, len(parts))
	sem := make(chan struct{}, recoverFanout)
	var wg sync.WaitGroup
	for _, p := range parts {
		if p.Addr == "" {
			continue
		}
		key := p.Addr + "#" + strconv.FormatInt(p.SessionID, 10)
		if seen[key] {
			continue
		}
		seen[key] = true
		wg.Add(1)
		sem <- struct{}{}
		go func(p Participant) {
			defer wg.Done()
			defer func() { <-sem }()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = lam.Forget(ctx, p.Addr, p.SessionID)
		}(p)
	}
	wg.Wait()
}

// compOwed reports whether a plan that took the abort path left a
// compensation undone for an already-committed subquery — the
// multitransaction then stays open in the journal so Recover finishes
// the compensation.
func compOwed(meta *translate.Meta, out *dolengine.Outcome) bool {
	if out.Status != translate.StatusAborted {
		return false
	}
	for _, tm := range meta.Tasks {
		if tm.Role != translate.RoleComp {
			continue
		}
		orig := meta.TaskFor(tm.Entry.Name)
		if orig == "" {
			continue
		}
		if out.TaskStatus(orig) == dol.StatusCommitted && out.TaskStatus(tm.Name) != dol.StatusCommitted {
			return true
		}
	}
	return false
}

// recoverFanout bounds how many remote participants or sites a recovery
// sweep contacts concurrently. At fleet scale a serial sweep is
// dominated by the slowest unreachable site's full backoff sequence;
// fanning out keeps the sweep's wall time near one site's worth while
// the jittered RetryPolicy backoff decorrelates the retry instants.
const recoverFanout = 16

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
}

// Recover replays the attached journal after a coordinator restart: it
// drives every prepared participant without a terminal outcome to its
// logged decision (re-attaching through wire.ReqAttach; tasks no commit
// decision covers are presumed aborted), re-runs compensations still
// owed for committed subqueries of aborted units, writes end records
// for multitransactions that become fully terminal, and compacts the
// journal. It is idempotent: a second pass over the same journal finds
// nothing to do.
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
		// Remote resolutions fan out in parallel — one unreachable site's
		// backoff sequence must not serialize the sweep — and the journal
		// appends happen serially afterward, in deterministic order.
		type resolveJob struct {
			task   string
			p      Participant
			commit bool
			st     ldbms.SessionState
			err    error
		}
		var jobs []*resolveJob
		for task, prec := range s.Prepared {
			if _, done := s.Outcomes[task]; done {
				continue
			}
			commit, _ := s.DecisionFor(task)
			if prec.Addr == "" {
				// An in-process session died with the coordinator and was
				// rolled back by its server; record the abort.
				f.appendOutcome(s.MTID, task, mtlog.StatusAborted)
				s.Outcomes[task] = mtlog.StatusAborted
				continue
			}
			p := Participant{Addr: prec.Addr, SessionID: prec.SessionID, Commit: commit}
			if d, ok := s.Decl(task); ok {
				p.Entry, p.Database = d.Entry, d.Database
			}
			jobs = append(jobs, &resolveJob{task: task, p: p, commit: commit})
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, recoverFanout)
		for _, jb := range jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func(jb *resolveJob) {
				defer func() { <-sem; wg.Done() }()
				jb.st, jb.err = f.engine.ResolveParticipant(ctx, jb.p.Addr, jb.p.SessionID, jb.commit)
			}(jb)
		}
		wg.Wait()
		for _, jb := range jobs {
			if jb.err != nil {
				clean = false
				rep.Unreachable = append(rep.Unreachable, jb.p)
				continue
			}
			u := mtlog.StatusAborted
			if jb.st == ldbms.StateCommitted {
				u = mtlog.StatusCommitted
			}
			f.appendOutcome(s.MTID, jb.task, u)
			s.Outcomes[jb.task] = u
			rep.Resolved = append(rep.Resolved, jb.p)
		}

		// Compensations owed: the unit went the abort way (no commit
		// decision anywhere in it — a crash before the decision is the
		// presumed-abort case) but an autocommit subquery had already
		// committed and its compensation has not run to completion.
		committedUnit := false
		for _, dr := range s.Decisions {
			if dr.Commit {
				committedUnit = true
			}
		}
		if s.Begin != nil && !committedUnit {
			for _, d := range s.Begin.Tasks {
				if !d.Comp || d.SQL == "" || d.ForTask == "" {
					continue
				}
				if s.Outcomes[d.ForTask] != mtlog.StatusCommitted {
					continue
				}
				if s.Outcomes[d.Name] == mtlog.StatusCommitted {
					continue
				}
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
			// The unit is fully terminal: acknowledge every once-prepared
			// remote participant so tombstones and participant journals
			// can be reclaimed.
			var parts []Participant
			for _, prec := range s.Prepared {
				parts = append(parts, Participant{Addr: prec.Addr, SessionID: prec.SessionID})
			}
			f.ackParticipants(parts)
		}
	}
	dropped, err := j.Compact()
	if err != nil {
		return rep, err
	}
	rep.Compacted = dropped
	return rep, nil
}

// RecoverOrphans completes the termination protocol from the
// participants' side: every incorporated remote site is asked for its
// parked in-doubt sessions (wire.ReqInDoubt), and each one no open
// journal multitransaction covers is rolled back and acknowledged.
//
// Such orphans exist because the coordinator logs a prepared record
// only after the participant's vote returns: a crash landing between
// the vote and the record's flush leaves the participant
// prepared — holding locks — while the restarted coordinator's journal
// has never heard of the session, so Recover alone cannot reach it.
// The write-ahead rule makes the sweep safe: a commit decision is
// durable only after every prepared record it covers, so a session
// absent from the journal can never have been promised a commit —
// presumed abort is the only correct outcome.
//
// Call RecoverOrphans after Recover and before accepting new sessions:
// a session prepared by a unit in flight right now would be
// indistinguishable from an orphan. The returned participants are the
// sessions swept; sites that stayed unreachable contribute the error
// (the last one), and a later pass retries them.
func (f *Federation) RecoverOrphans(ctx context.Context) ([]Participant, error) {
	j := f.Journal()
	if j == nil {
		return nil, errors.New("core: RecoverOrphans requires a journal (SetJournal)")
	}
	states, err := j.States()
	if err != nil {
		return nil, err
	}
	covered := make(map[string]bool)
	for _, s := range states {
		if s.Ended {
			continue
		}
		for _, prec := range s.Prepared {
			covered[prec.Addr+"#"+strconv.FormatInt(prec.SessionID, 10)] = true
		}
	}
	// Sites are swept in parallel: each goroutine queries one site's
	// parked sessions and resolves its orphans, so a single dark site's
	// retry backoff does not stall the fleet-wide sweep. Duplicate sites
	// (several services incorporated at one address) are visited once.
	var (
		wg      sync.WaitGroup
		sem     = make(chan struct{}, recoverFanout)
		mu      sync.Mutex
		swept   []Participant
		lastErr error
	)
	visited := make(map[string]bool)
	for _, name := range f.AD.Names() {
		e, err := f.AD.Lookup(name)
		if err != nil || e.Site == "" {
			continue // in-process service: its sessions died with us
		}
		if visited[e.Site] {
			continue
		}
		visited[e.Site] = true
		wg.Add(1)
		sem <- struct{}{}
		go func(site string) {
			defer func() { <-sem; wg.Done() }()
			sessions, ierr := lam.InDoubtSessions(ctx, site)
			if ierr != nil {
				mu.Lock()
				lastErr = ierr
				mu.Unlock()
				return
			}
			for _, d := range sessions {
				if covered[site+"#"+strconv.FormatInt(d.SessionID, 10)] {
					continue // an open multitransaction owns it; Recover's job
				}
				if _, rerr := f.engine.ResolveParticipant(ctx, site, d.SessionID, false); rerr != nil {
					mu.Lock()
					lastErr = rerr
					mu.Unlock()
					continue
				}
				f.ackParticipants([]Participant{{Addr: site, SessionID: d.SessionID}})
				mu.Lock()
				swept = append(swept, Participant{Addr: site, SessionID: d.SessionID})
				mu.Unlock()
			}
		}(e.Site)
	}
	wg.Wait()
	return swept, lastErr
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
	client, err := f.Resolve(site)
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
