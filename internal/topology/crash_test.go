package topology

import (
	"path/filepath"
	"testing"
	"time"

	"msql/internal/core"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/mtlog"
)

// Process-level crash tests of participant durability (§3.2.2): the
// united LAM runs as a child process, is SIGKILLed at a chosen 2PC
// phase boundary and relaunched on the same participant journal, and
// the coordinator's recovery must leave no lost commit and no
// double-applied effect.

var chaosUnited = ldbms.Spec{Service: "svc_unit", DB: "united", Boot: []string{
	"CREATE TABLE flight (fn INTEGER, sour CHAR(20), dest CHAR(20), rates FLOAT)",
	"INSERT INTO flight VALUES (300, 'Houston', 'San Antonio', 120.0)",
}}

var chaosCont = ldbms.Spec{Service: "svc_cont", DB: "continental", Boot: []string{
	"CREATE TABLE flights (flnu INTEGER, source CHAR(20), destination CHAR(20), rate FLOAT)",
	"INSERT INTO flights VALUES (100, 'Houston', 'San Antonio', 100.0)",
}}

// launchChild starts the united LAM child; a failed test leaves its
// journal and logs in $MSQL_CHAOS_ARTIFACTS/<test>.
func launchChild(t *testing.T) *Proc {
	t.Helper()
	dir := t.TempDir()
	p, err := LaunchSite(dir, chaosUnited, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	saveOnFailure(t, dir)
	return p
}

// chaosFederation builds a journaled two-site federation: continental
// in-process, united in the child behind a killClient.
func chaosFederation(t *testing.T, p *Proc) (*core.Federation, *Site, *killClient) {
	t.Helper()
	fleet, err := (&Plan{Sites: []ldbms.Spec{chaosCont}}).Launch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	cont := fleet.Sites[0]

	fed := core.New()
	fed.SetRecovery(lam.RetryPolicy{Attempts: 4, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 100 * time.Millisecond}, time.Second)
	kc := killWrap(t, fed, p, nil, chaosUnited.Service)
	plan := &Plan{Sites: []ldbms.Spec{chaosCont, chaosUnited}}
	setup := plan.Script(func(s ldbms.Spec) string {
		if s.Service == chaosUnited.Service {
			return p.Addr()
		}
		return cont.Addr()
	})
	if _, err := fed.ExecScript(setup); err != nil {
		t.Fatal(err)
	}

	j, err := mtlog.Open(filepath.Join(t.TempDir(), "mt.journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	fed.SetJournal(j)
	return fed, cont, kc
}

const vitalUpdate = `
USE continental VITAL united VITAL
UPDATE flight% SET rate% = rate% * 1.1 WHERE sour% = 'Houston'
`

// tcpRate reads united's flight 300 rate through a fresh TCP client —
// the ground truth of what the participant actually holds.
func tcpRate(t *testing.T, addr string) float64 {
	t.Helper()
	res := queryAt(t, addr, "united", "SELECT rates FROM flight WHERE fn = 300")
	if len(res.Rows) != 1 {
		t.Fatalf("united flight rows = %v, want exactly one (no duplicated effects)", res.Rows)
	}
	f, _ := res.Rows[0][0].AsFloat()
	return f
}

func contRate(t *testing.T, cont *Site) float64 {
	t.Helper()
	sess, err := cont.Server.OpenSession("continental")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec("SELECT rate FROM flights WHERE flnu = 100")
	if err != nil {
		t.Fatal(err)
	}
	f, _ := res.Rows[0][0].AsFloat()
	return f
}

// TestKillAfterPreparedRecoversLoggedCommit is the acceptance scenario:
// the united LAM is SIGKILLed after its PREPARED vote is durable and on
// the wire but before any decision arrives. The unit ends Unresolved;
// the child restarts on the same journal, re-materializes the in-doubt
// session, and the coordinator's Recover drives it to the journaled
// COMMIT — with zero lost or duplicated effects in the final table.
func TestKillAfterPreparedRecoversLoggedCommit(t *testing.T) {
	p := launchChild(t)
	fed, cont, kc := chaosFederation(t, p)
	kc.killAfterPrepare.Store(true)

	results, err := fed.ExecScript(vitalUpdate)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != core.StateUnresolved {
		t.Fatalf("state = %s, want unresolved while the participant is down (tasks %v)",
			sync.State, sync.TaskStates)
	}
	if len(sync.Unresolved) != 1 || !sync.Unresolved[0].Commit {
		t.Fatalf("unresolved = %+v, want the united participant with a commit decision",
			sync.Unresolved)
	}
	// Continental already committed its half: the decision was logged.
	if f := contRate(t, cont); f < 109.9 || f > 110.1 {
		t.Fatalf("continental rate = %v, want 110", f)
	}

	// The participant comes back from the crash on the same journal.
	if err := p.Restart(); err != nil {
		t.Fatal(err)
	}
	rep, err := fed.Recover(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resolved) != 1 || !rep.Resolved[0].Commit {
		t.Fatalf("resolved = %+v, want united driven to commit", rep.Resolved)
	}
	if len(rep.Unreachable) != 0 {
		t.Fatalf("unreachable = %+v", rep.Unreachable)
	}
	// Exactly once: 120 * 1.1, not 120 (lost) and not 145.2 (doubled).
	if f := tcpRate(t, p.Addr()); f < 131.9 || f > 132.1 {
		t.Fatalf("united rate after recovery = %v, want 132", f)
	}
	// Both journals drain: the coordinator compacts its multitransaction,
	// the END acknowledgment lets the participant compact its sessions.
	states, err := fed.Journal().States()
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatalf("coordinator journal still holds %d multitransactions", len(states))
	}
	waitDrained(t, "", p.Journal())
	// Idempotent: nothing left for a second pass.
	rep2, err := fed.Recover(bg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Multitransactions != 0 || len(rep2.Resolved) != 0 {
		t.Fatalf("second recovery pass not a no-op: %+v", rep2)
	}
}

// TestKillAfterCommitReplyLost: the participant commits, then crashes
// before the coordinator sees the reply. The restarted child re-applies
// the committed effects from its journal and answers the retrying
// coordinator from the durable tombstone — never re-executing.
func TestKillAfterCommitReplyLost(t *testing.T) {
	p := launchChild(t)
	fed, _, kc := chaosFederation(t, p)
	kc.killAfterCommit.Store(true)

	results, err := fed.ExecScript(vitalUpdate)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != core.StateUnresolved {
		t.Fatalf("state = %s, want unresolved after the lost reply (tasks %v)",
			sync.State, sync.TaskStates)
	}

	if err := p.Restart(); err != nil {
		t.Fatal(err)
	}
	rep, err := fed.Recover(bg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Resolved) != 1 || !rep.Resolved[0].Commit {
		t.Fatalf("resolved = %+v, want united answered committed", rep.Resolved)
	}
	// The effects survived the crash exactly once — the tombstone, not a
	// re-execution, answered the coordinator.
	if f := tcpRate(t, p.Addr()); f < 131.9 || f > 132.1 {
		t.Fatalf("united rate = %v, want 132 (exactly once)", f)
	}
	waitDrained(t, "", p.Journal())
}

// TestKillBeforePrepareResolvesThroughRestart: the crash lands before
// the vote, so nothing was promised — presumed abort. The engine's own
// in-doubt loop keeps retrying through connection-refused while the
// participant restarts in the background, and terminates the unit as
// aborted from the participant's definite no-record answer.
func TestKillBeforePrepareResolvesThroughRestart(t *testing.T) {
	p := launchChild(t)
	fed, cont, kc := chaosFederation(t, p)
	// Generous pacing: the loop must outlive the ~300ms restart window.
	fed.SetRecovery(lam.RetryPolicy{Attempts: 40, BaseDelay: 50 * time.Millisecond,
		MaxDelay: 100 * time.Millisecond}, time.Second)
	kc.killBeforePrepare.Store(true)

	go func() {
		time.Sleep(300 * time.Millisecond)
		_ = p.Restart()
	}()
	results, err := fed.ExecScript(vitalUpdate)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != core.StateAborted {
		t.Fatalf("state = %s, want aborted (tasks %v, unresolved %+v)",
			sync.State, sync.TaskStates, sync.Unresolved)
	}
	if len(sync.Unresolved) != 0 {
		t.Fatalf("unresolved = %+v, want none — the loop resolved through the restart",
			sync.Unresolved)
	}
	// Neither site kept any effect.
	if f := contRate(t, cont); f < 99.99 || f > 100.01 {
		t.Fatalf("continental rate = %v, want the seed 100", f)
	}
	if f := tcpRate(t, p.Addr()); f < 119.9 || f > 120.1 {
		t.Fatalf("united rate = %v, want the seed 120", f)
	}
}

// TestCleanRunAcksAndCompacts: with no faults at all, the
// end-of-multitransaction acknowledgment lets the participant forget as
// soon as the coordinator next sends it a request — its journal then
// holds nothing.
func TestCleanRunAcksAndCompacts(t *testing.T) {
	p := launchChild(t)
	fed, cont, _ := chaosFederation(t, p)

	results, err := fed.ExecScript(vitalUpdate)
	if err != nil {
		t.Fatal(err)
	}
	sync := results[len(results)-1]
	if sync.State != core.StateSuccess {
		t.Fatalf("state = %s, want success (tasks %v)", sync.State, sync.TaskStates)
	}
	if f := tcpRate(t, p.Addr()); f < 131.9 || f > 132.1 {
		t.Fatalf("united rate = %v, want 132", f)
	}
	if f := contRate(t, cont); f < 109.9 || f > 110.1 {
		t.Fatalf("continental rate = %v, want 110", f)
	}
	// The acknowledgment rides the site's next request.
	if _, err := fed.ExecScript("USE united\nSELECT rates FROM flight WHERE fn = 300"); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, "", p.Journal())
	// A restart after a fully acknowledged unit finds nothing to replay
	// and seeds the table fresh — no ghost effects.
	if err := p.Restart(); err != nil {
		t.Fatal(err)
	}
	if f := tcpRate(t, p.Addr()); f < 119.9 || f > 120.1 {
		t.Fatalf("united rate after clean restart = %v, want the boot seed 120", f)
	}
}
