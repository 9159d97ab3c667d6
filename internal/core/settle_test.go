package core

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"msql/internal/dol"
	"msql/internal/dolengine"
	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/semvar"
	"msql/internal/topology"
	"msql/internal/translate"
	"msql/internal/wal"
)

// sagaMultiTx raises continental's fare in autocommit with a COMP
// clause, and delta's and avis's under 2PC. State 0 keeps continental
// and delta, state 1 avis alone, so continental has two COMP copies: one
// in state 1's branch and one in the failure branch.
const sagaMultiTx = `BEGIN MULTITRANSACTION
USE continental
UPDATE flights SET rate = rate + 1 WHERE flnu = 100
COMP continental UPDATE flights SET rate = rate - 1 WHERE flnu = 100;
USE delta
UPDATE flight SET rate = rate + 1 WHERE fnu = 200;
USE avis
UPDATE cars SET rate = rate + 1 WHERE code = 3;
COMMIT continental AND delta
  avis
END MULTITRANSACTION`

const sagaRate = "SELECT rate FROM flights WHERE flnu = 100"

// sagaFederation serves continental autocommit-only and delta and avis
// with 2PC, each on a loopback LAM the federation reaches by address, so
// a coordinator restarted from the journal alone reaches them too. The
// federation journals at path.
func sagaFederation(t *testing.T, path string) (*Federation, map[string]*ldbms.Server) {
	t.Helper()
	plan := &topology.Plan{Sites: paperSites("continental", "delta", "avis")}
	plan.Sites[0].Profile = ldbms.ProfileAutoCommitOnly()
	srvs, addrs := map[string]*ldbms.Server{}, map[string]string{}
	for _, s := range plan.Sites {
		srvs[s.DB] = openSite(t, s)
		addrs[s.DB] = serveLAM(t, srvs[s.DB]).Addr()
	}
	fed := newFederation(t)
	if _, err := fed.ExecScript(plan.Script(func(s ldbms.Spec) string { return addrs[s.DB] })); err != nil {
		t.Fatal(err)
	}
	fed.SetJournal(openJournal(t, path))
	return fed, srvs
}

func openJournal(t *testing.T, path string) *mtlog.Journal {
	t.Helper()
	j, err := mtlog.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// runSaga runs sagaMultiTx and returns its result.
func runSaga(t *testing.T, fed *Federation) *Result {
	t.Helper()
	results, err := fed.ExecScript(sagaMultiTx)
	if err != nil {
		t.Fatal(err)
	}
	return results[len(results)-1]
}

// openUnits counts the journal's multitransactions without an end record.
func openUnits(t *testing.T, fed *Federation) int {
	t.Helper()
	states, err := fed.Journal().States()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range states {
		if !s.Ended {
			n++
		}
	}
	return n
}

// recoverOnce runs Recover and checks that it ran want compensations and
// left continental's rate at 100.
func recoverOnce(t *testing.T, fed *Federation, cont *ldbms.Server, want int) {
	t.Helper()
	rep, err := fed.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CompRuns) != want {
		t.Fatalf("comp runs = %v, want %d", rep.CompRuns, want)
	}
	if got := remoteRate(t, cont, "continental", sagaRate); got != 100 {
		t.Fatalf("continental rate = %v after recovery, want 100", got)
	}
}

// TestMultiTxFailedCompWithNoStateReachedStaysOpen: no acceptable state
// is reachable (delta and avis fail), and continental's compensation
// fails too. The multitransaction is Incorrect, not Aborted: its
// continental raise still stands. The journal keeps it open, one
// Recover compensates, and a second finds nothing to do.
func TestMultiTxFailedCompWithNoStateReachedStaysOpen(t *testing.T) {
	fed, srvs := sagaFederation(t, filepath.Join(t.TempDir(), "mt.journal"))
	srvs["delta"].Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "delta"})
	srvs["avis"].Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "avis"})
	srvs["continental"].Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "continental", Skip: 1})
	mtx := runSaga(t, fed)
	if mtx.Status != 2 || mtx.State != StateIncorrect || mtx.AchievedState != nil || len(mtx.Compensated) != 0 {
		t.Fatalf("status %d, state %s, achieved %v, compensated %v; want 2, incorrect, none, none",
			mtx.Status, mtx.State, mtx.AchievedState, mtx.Compensated)
	}
	if got := remoteRate(t, srvs["continental"], "continental", sagaRate); got != 101 {
		t.Fatalf("continental rate = %v, want 101 (raised, compensation failed)", got)
	}
	if n := openUnits(t, fed); n != 1 {
		t.Fatalf("open units = %d, want the owed one", n)
	}
	recoverOnce(t, fed, srvs["continental"], 1)
	recoverOnce(t, fed, srvs["continental"], 0)
}

// TestMultiTxExcludedMemberOwedCompIsIncorrect: state 1 ({avis}) is
// reached, but the compensation of continental, which state 1 excludes,
// fails. The avis commit decision does not make the unit a success: it
// is Incorrect with no achieved state, and Recover compensates
// continental once although the journal holds a commit decision.
func TestMultiTxExcludedMemberOwedCompIsIncorrect(t *testing.T) {
	fed, srvs := sagaFederation(t, filepath.Join(t.TempDir(), "mt.journal"))
	srvs["delta"].Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "delta"})
	srvs["continental"].Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "continental", Skip: 1})
	mtx := runSaga(t, fed)
	if mtx.Status != 1 || mtx.State != StateIncorrect || mtx.AchievedState != nil {
		t.Fatalf("status %d, state %s, achieved %v; want 1, incorrect, none", mtx.Status, mtx.State, mtx.AchievedState)
	}
	if n := openUnits(t, fed); n != 1 {
		t.Fatalf("open units = %d, want the owed one", n)
	}
	recoverOnce(t, fed, srvs["continental"], 1)
	recoverOnce(t, fed, srvs["continental"], 0)
}

// TestRecoverRunsOneCompCopyPerSubquery: the multitransaction succeeds,
// then the coordinator's journal is cut right after continental's
// outcome record, before any decision. Recovery presumes the unit
// aborted and owes continental one compensation, not one per COMP copy
// the begin record declares.
func TestRecoverRunsOneCompCopyPerSubquery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mt.journal")
	fed, srvs := sagaFederation(t, path)
	if mtx := runSaga(t, fed); mtx.State != StateSuccess || mtx.Status != 0 {
		t.Fatalf("status %d, state %s; want 0, success", mtx.Status, mtx.State)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := wal.Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := mtlog.DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	forward, end := "", 0
	for i, r := range recs {
		end += wal.HeaderSize + len(frames[i].Payload)
		if r.Type == mtlog.TBegin {
			comps := 0
			for _, d := range r.Tasks {
				if d.Entry == "continental" && !d.Comp {
					forward = d.Name
				}
				if d.Comp {
					comps++
				}
			}
			if comps != 2 {
				t.Fatalf("begin record declares %d COMP copies, want 2", comps)
			}
		}
		if r.Type == mtlog.TOutcome && r.Task == forward {
			break
		}
		if r.Type == mtlog.TDecision {
			t.Fatal("a decision precedes continental's outcome")
		}
	}
	cut := filepath.Join(t.TempDir(), "cut.journal")
	if err := os.WriteFile(cut, data[:end], 0o644); err != nil {
		t.Fatal(err)
	}
	restarted := newFederation(t)
	restarted.SetJournal(openJournal(t, cut))
	recoverOnce(t, restarted, srvs["continental"], 1)
	recoverOnce(t, restarted, srvs["continental"], 0)
}

// TestJournalStatusesAreTheEngines pins the journal's outcome statuses
// to the engine's values, which core writes and reads without mapping.
func TestJournalStatusesAreTheEngines(t *testing.T) {
	for st, u := range map[dol.TaskStatus]uint8{
		dol.StatusCommitted: mtlog.StatusCommitted,
		dol.StatusAborted:   mtlog.StatusAborted,
		dol.StatusError:     mtlog.StatusError,
	} {
		if uint8(st) != u {
			t.Errorf("engine status %s is %d, journal's is %d", st, st, u)
		}
	}
}

// A settleEntry is one forward subquery of the exhaustive settle test:
// its forward status and, for an autocommit entry, the status of each
// COMP copy (nil for a 2PC entry).
type settleEntry struct {
	name  string
	fwd   dol.TaskStatus
	comps []dol.TaskStatus
}

var (
	forwardStatuses = []dol.TaskStatus{dol.StatusCommitted, dol.StatusAborted, dol.StatusError, dol.StatusInDoubt}
	copyStatuses    = []dol.TaskStatus{dol.StatusNotRun, dol.StatusCommitted, dol.StatusError}
)

// entryCases enumerates every status assignment of one entry with
// copies COMP copies (0 for a 2PC entry).
func entryCases(name string, copies int) []settleEntry {
	combos := [][]dol.TaskStatus{nil}
	for c := 0; c < copies; c++ {
		var next [][]dol.TaskStatus
		for _, prefix := range combos {
			for _, st := range copyStatuses {
				next = append(next, append(slices.Clone(prefix), st))
			}
		}
		combos = next
	}
	var out []settleEntry
	for _, fwd := range forwardStatuses {
		for _, comps := range combos {
			out = append(out, settleEntry{name: name, fwd: fwd, comps: comps})
		}
	}
	return out
}

// product is every combination of one case per entry.
func product(perEntry [][]settleEntry) [][]settleEntry {
	out := [][]settleEntry{nil}
	for _, cases := range perEntry {
		var next [][]settleEntry
		for _, prefix := range out {
			for _, c := range cases {
				next = append(next, append(slices.Clone(prefix), c))
			}
		}
		out = next
	}
	return out
}

// settlePlan builds the plan metadata and outcome of entries: forward
// tasks T1..Tn in entry order, then the COMP copies, as the translator
// lists them.
func settlePlan(entries []settleEntry, vital bool) (*translate.Meta, *dolengine.Outcome) {
	meta := &translate.Meta{}
	out := &dolengine.Outcome{Tasks: map[string]*dolengine.TaskInfo{}}
	for i, e := range entries {
		name := fmt.Sprintf("T%d", i+1)
		entry := semvar.ScopeEntry{Name: e.name, Database: e.name, Vital: vital}
		meta.Tasks = append(meta.Tasks, translate.TaskMeta{Name: name, Entry: entry, Role: translate.RoleWrite, Comp: e.comps != nil})
		out.Tasks[name] = &dolengine.TaskInfo{Status: e.fwd}
		if vital {
			meta.VitalNames = append(meta.VitalNames, e.name)
		}
	}
	n := 0
	for i, e := range entries {
		for _, st := range e.comps {
			n++
			name := fmt.Sprintf("C%d", n)
			meta.Tasks = append(meta.Tasks, translate.TaskMeta{Name: name, Entry: meta.Tasks[i].Entry,
				Role: translate.RoleComp, Comp: true, For: meta.Tasks[i].Name})
			if st != dol.StatusNotRun {
				out.Tasks[name] = &dolengine.TaskInfo{Status: st}
			}
		}
	}
	return meta, out
}

// paperFate reads §3.3 directly: a subquery has effect when it committed
// and no compensation of it committed; the effect is still to be undone
// when a compensation was started (or, recovering a unit no commit
// decision covers, when one exists at all) and did not commit.
func paperFate(e settleEntry, presumeAbort bool) fate {
	if e.fwd == dol.StatusInDoubt {
		return inDoubt
	}
	effect := e.fwd == dol.StatusCommitted && !slices.Contains(e.comps, dol.StatusCommitted)
	if !effect {
		return undone
	}
	started := presumeAbort && len(e.comps) > 0
	for _, st := range e.comps {
		started = started || st != dol.StatusNotRun
	}
	if started {
		return owed
	}
	return stands
}

// paperState reads §3.2.1 and §3.4 directly: kept names the subqueries
// the unit must keep (nil when no acceptable state was reached); every
// other one must be undone.
func paperState(entries []settleEntry, kept []string, reached bool) GlobalState {
	var effects, doubts, right int
	for _, e := range entries {
		f := paperFate(e, false)
		switch {
		case f == inDoubt:
			doubts++
		case f != undone:
			effects++
		}
		if slices.Contains(kept, e.name) && f == stands || !slices.Contains(kept, e.name) && f == undone {
			right++
		}
	}
	switch {
	case doubts > 0:
		return StateUnresolved
	case reached && right == len(entries):
		return StateSuccess
	case effects == 0:
		return StateAborted
	}
	return StateIncorrect
}

// checkSettle compares standing and fillFromOutcome on one case with the
// paper's reading.
func checkSettle(t *testing.T, entries []settleEntry, meta *translate.Meta, out *dolengine.Outcome, kept []string, reached bool) {
	t.Helper()
	for _, presume := range []bool{false, true} {
		subs := standing(len(meta.Tasks), func(i int) (string, string) { return meta.Tasks[i].Name, meta.Tasks[i].For },
			out.TaskStatus, presume)
		if len(subs) != len(entries) {
			t.Fatalf("%v: %d subqueries, want %d", entries, len(subs), len(entries))
		}
		for k, sq := range subs {
			if want := paperFate(entries[k], presume); sq.fate != want {
				t.Fatalf("%+v (presume abort %v): %s has fate %d, want %d", entries, presume, entries[k].name, sq.fate, want)
			}
		}
	}
	res := &Result{}
	(&Federation{}).fillFromOutcome(res, meta, out)
	want := paperState(entries, kept, reached)
	if res.State != want {
		t.Fatalf("%+v (DOLSTATUS %d): state %s, want %s", entries, out.Status, res.State, want)
	}
	if achieved := res.AchievedState != nil; achieved != (want == StateSuccess && meta.AcceptableStates != nil) {
		t.Fatalf("%+v (DOLSTATUS %d): state %s with achieved state %v", entries, out.Status, res.State, res.AchievedState)
	}
}

// TestStandingExhaustive checks the settle rule against the paper on
// every status assignment: vital units of one to three entries, each
// 2PC or autocommit with a COMP clause, and a two-state
// multitransaction whose autocommit member has two COMP copies, under
// every DOLSTATUS.
func TestStandingExhaustive(t *testing.T) {
	cases := 0
	for n := 1; n <= 3; n++ {
		for kinds := 0; kinds < 1<<n; kinds++ {
			var perEntry [][]settleEntry
			var names []string
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("s%d", i)
				names = append(names, name)
				perEntry = append(perEntry, entryCases(name, kinds>>i&1))
			}
			for _, entries := range product(perEntry) {
				meta, out := settlePlan(entries, true)
				checkSettle(t, entries, meta, out, names, true)
				cases++
			}
		}
	}
	states := [][]string{{"continental", "delta"}, {"avis"}}
	for _, entries := range product([][]settleEntry{
		entryCases("continental", 2), entryCases("delta", 0), entryCases("avis", 0),
	}) {
		for status := 0; status <= len(states); status++ {
			meta, out := settlePlan(entries, false)
			meta.AcceptableStates, meta.FailStatus, out.Status = states, len(states), status
			var kept []string
			if status < len(states) {
				kept = states[status]
			}
			checkSettle(t, entries, meta, out, kept, status < len(states))
			cases++
		}
	}
	t.Logf("%d cases", cases)
}
