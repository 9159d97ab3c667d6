package topology

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msql/internal/core"
	"msql/internal/lam"
	"msql/internal/mtlog"
	"msql/internal/netfault"
	"msql/internal/obs"
	"msql/internal/wire"
)

// The topology soak: a mixed-capability fleet (two-phase Oracle-like,
// DDL-autocommit Ingres-like, and csv autocommit-only sites) federated
// through the generated scenario script, loaded with generated
// multitransactions while faults are injected at every 2PC phase
// boundary — SIGKILL of victim child processes before prepare, after
// prepare, and after commit; netfault blackholes tripping circuit
// breakers; a csv crash stranding an owed compensation — and then
// machine-checked: vital atomicity on every unit, effects applied
// exactly once, compensation replayed by recovery, autocommit-only
// sites never asked to prepare, non-vital entries behind open breakers
// degraded (never vital ones), and both journal tiers drained to zero
// in-doubt sessions.
//
// Sites default to 12 (the PR gate); MSQL_TOPOLOGY_SITES=50 runs the
// full-scale soak CI schedules as its own job.

// soakSites reads the fleet size from the environment.
func soakSites() int {
	if v := os.Getenv("MSQL_TOPOLOGY_SITES"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 6 {
			return n
		}
	}
	return 12
}

func TestTopologySoak(t *testing.T) {
	nSites := soakSites()
	dir := t.TempDir()
	artifacts := saveOnFailure(t, dir)
	incidents := &incidentLog{start: time.Now()}

	slowPath := filepath.Join(dir, "slow-query.log")
	slowFile, err := os.Create(slowPath)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetSlowQueryLog(obs.NewSlowQueryLog(slowFile, time.Millisecond))

	plan := Generate(Spec{Sites: nSites, Seed: 42, TombstoneTTLMS: 2000})

	// Victims: two Oracle-like two-phase sites (SIGKILLed at 2PC phase
	// boundaries) and one csv autocommit-only site (crashed with an owed
	// compensation) run as real child processes; everything else is
	// in-process.
	var relVictims []SiteSpec
	var csvVictim *SiteSpec
	var proxied []SiteSpec
	for i := range plan.Sites {
		s := plan.Sites[i]
		switch {
		case s.Profile == ProfileOracle && len(relVictims) < 2:
			relVictims = append(relVictims, s)
		case s.Profile == ProfileAutoCommit && csvVictim == nil:
			csvVictim = &plan.Sites[i]
		case s.Profile == ProfileOracle && len(proxied) < 2:
			proxied = append(proxied, s)
		}
	}
	if len(relVictims) < 2 || csvVictim == nil || len(proxied) < 2 {
		t.Fatalf("fleet mix too thin: %d rel victims, csv=%v, %d proxied", len(relVictims), csvVictim, len(proxied))
	}
	skip := []int{relVictims[0].Index, relVictims[1].Index, csvVictim.Index}

	launchVictim := func(s SiteSpec) *Proc {
		if s.Backend == BackendCSV {
			s.Dir = filepath.Join(dir, s.Service+".data")
		}
		p, err := LaunchSite(dir, s, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		return p
	}
	victimA := launchVictim(relVictims[0])
	victimB := launchVictim(relVictims[1])
	victimC := launchVictim(*csvVictim)

	fleet, err := plan.Launch(dir, skip...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)

	// Two in-process sites go behind netfault proxies for the
	// breaker-flap phase.
	proxyOf := map[string]*netfault.Proxy{}
	for _, s := range proxied {
		px, err := netfault.New(fleet.Site(s.Service).Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { px.Close() })
		proxyOf[s.Service] = px
	}

	// The federation: breaker-gated lazy dials for the in-process and
	// proxied sites, kill-wrapped registered clients for the victims.
	fed := core.New()
	fed.CallTimeout = 2 * time.Second
	fed.SetBreaker(lam.BreakerPolicy{Threshold: 3, Cooldown: 400 * time.Millisecond})
	fed.SetRecovery(lam.RetryPolicy{Attempts: 10, BaseDelay: 25 * time.Millisecond,
		MaxDelay: 150 * time.Millisecond}, 2*time.Second)

	kcA := killWrap(t, fed, victimA, incidents, relVictims[0].Service)
	kcB := killWrap(t, fed, victimB, incidents, relVictims[1].Service)
	kcC := killWrap(t, fed, victimC, incidents, csvVictim.Service)

	victimOf := map[string]*Proc{
		relVictims[0].DB: victimA, relVictims[1].DB: victimB, csvVictim.DB: victimC,
	}
	script := plan.Script(func(s SiteSpec) string {
		if p := victimOf[s.DB]; p != nil {
			return p.Addr()
		}
		if px, ok := proxyOf[s.Service]; ok {
			return px.Addr()
		}
		return fleet.Site(s.Service).Addr()
	})
	if _, err := fed.ExecScript(script); err != nil {
		t.Fatalf("federate %d sites: %v", nSites, err)
	}

	coordJournal := filepath.Join(dir, "coord.journal")
	j, err := mtlog.Open(coordJournal)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	fed.SetJournal(j)

	// Every unit the soak attempts, for the final atomicity audit.
	var (
		attemptedMu sync.Mutex
		attempted   []*Unit
		commits     atomic.Int64
		aborts      atomic.Int64
		unresolved  atomic.Int64
	)
	record := func(u *Unit, audit bool, results []*core.Result, err error) {
		if audit {
			attemptedMu.Lock()
			attempted = append(attempted, u)
			attemptedMu.Unlock()
		}
		if err != nil {
			aborts.Add(1)
			return
		}
		sync := results[len(results)-1]
		switch sync.State {
		case core.StateSuccess:
			commits.Add(1)
		case core.StateUnresolved:
			unresolved.Add(1)
		default:
			aborts.Add(1)
		}
	}

	// countAt reads the ground-truth row count for a unit id at a site:
	// victims through a fresh TCP client, in-process sites directly.
	countAt := func(db string, id int) int {
		if p := victimOf[db]; p != nil {
			return len(queryAt(t, p.Addr(), db, fmt.Sprintf("SELECT id FROM acct WHERE id = %d", id)).Rows)
		}
		site := fleet.Site(plan.serviceOf(db))
		n, err := site.RowCount(id)
		if err != nil {
			t.Fatalf("count %s: %v", db, err)
		}
		return n
	}

	// auditUnit machine-checks the vital-set invariant for one unit
	// against the sites' current ground truth: no double-application
	// anywhere, and every vital site agreeing — all applied once or none.
	auditUnit := func(u *Unit, phase string) {
		t.Helper()
		seen := -1
		for _, db := range u.Vital {
			n := countAt(db, u.RowID)
			if n > 1 {
				t.Errorf("%s: unit %d: %s applied %d times — duplicated effects", phase, u.ID, db, n)
			}
			if seen == -1 {
				seen = n
			} else if n != seen {
				t.Errorf("%s: unit %d: vital set torn — %s=%d vs earlier %d (vital %v)",
					phase, u.ID, db, n, seen, u.Vital)
			}
		}
		for _, db := range u.NonVital {
			if n := countAt(db, u.RowID); n > 1 {
				t.Errorf("%s: unit %d: non-vital %s applied %d times", phase, u.ID, db, n)
			}
		}
	}

	// recoverClean drives journal recovery until no open multitransaction
	// remains (participants may still be restarting; keep sweeping).
	recoverClean := func(phase string) *core.RecoveryReport {
		t.Helper()
		agg := &core.RecoveryReport{}
		deadline := time.Now().Add(30 * time.Second)
		for {
			rep, err := fed.Recover(bg)
			if err != nil {
				t.Fatalf("%s: recover: %v", phase, err)
			}
			agg.Resolved = append(agg.Resolved, rep.Resolved...)
			agg.CompRuns = append(agg.CompRuns, rep.CompRuns...)
			if rep.Multitransactions == 0 && len(rep.Unreachable) == 0 {
				return agg
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: recovery never converged: %+v", phase, rep)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	// Phase 1 — concurrent clean load. Background units avoid the victim
	// sites: the rel victims are in-memory, so a later SIGKILL wipes
	// effects committed before the crash — expected for an in-memory
	// participant, but it would invalidate the end-of-run audit. Units
	// that DO span victims are the targeted crash-window units below,
	// audited immediately after their recovery.
	bgSites := make([]SiteSpec, 0, len(plan.Sites))
	for _, s := range plan.Sites {
		if s.Index != relVictims[0].Index && s.Index != relVictims[1].Index && s.Index != csvVictim.Index {
			bgSites = append(bgSites, s)
		}
	}
	bgPlan := &Plan{Spec: plan.Spec, Sites: bgSites}
	units := bgPlan.Units(7, 24)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := fed.NewSession(fmt.Sprintf("w%d", w))
			for i := w; i < len(units); i += 4 {
				res, err := sess.ExecScript(units[i].Script)
				record(units[i], true, res, err)
			}
		}(w)
	}
	wg.Wait()

	// Phase 2 — SIGKILL at every 2PC phase boundary. Each targeted unit
	// spans the armed victim (vital) and a healthy in-process two-phase
	// site (vital); the victim restarts in the background so the
	// engine's in-doubt loop can resolve through connection-refused.
	var healthyRel SiteSpec
	for _, s := range plan.Sites {
		if s.Profile != ProfileAutoCommit && s.Index != relVictims[0].Index &&
			s.Index != relVictims[1].Index && proxyOf[s.Service] == nil {
			healthyRel = s
			break
		}
	}
	nextID := 1000
	// Each crash-window unit is audited immediately after its recovery:
	// the rel victims are in-memory, so a later crash legitimately wipes
	// effects of units already resolved and acknowledged — the invariant
	// must hold at the moment the unit's own recovery completes.
	boundaries := []struct {
		name   string
		victim *Proc
		db     string
		arm    *atomic.Bool
	}{
		{"kill-before-prepare", victimA, relVictims[0].DB, &kcA.killBeforePrepare},
		{"kill-after-prepare", victimA, relVictims[0].DB, &kcA.killAfterPrepare},
		{"kill-after-commit", victimA, relVictims[0].DB, &kcA.killAfterCommit},
		{"kill-after-prepare-b", victimB, relVictims[1].DB, &kcB.killAfterPrepare},
		{"kill-after-commit-b", victimB, relVictims[1].DB, &kcB.killAfterCommit},
	}
	for _, b := range boundaries {
		b.arm.Store(true)
		u := plan.UnitFor(nextID, []string{b.db, healthyRel.DB}, []bool{true, true})
		nextID++
		go func() {
			time.Sleep(250 * time.Millisecond)
			if err := b.victim.Restart(); err == nil {
				incidents.add("restart", b.db)
			}
		}()
		res, err := fed.ExecScript(u.Script)
		record(u, false, res, err)
		// A commit that landed but lost its reply leaves the unit in
		// doubt, never failed: it ends committed or unresolved, and
		// recovery then answers it from the participant's tombstone.
		if strings.HasPrefix(b.name, "kill-after-commit") {
			if err != nil {
				t.Errorf("%s: %v", b.name, err)
			} else if st := res[len(res)-1].State; st != core.StateSuccess && st != core.StateUnresolved {
				t.Errorf("%s: unit ended %s, want success or unresolved (tasks %v)",
					b.name, st, res[len(res)-1].TaskStates)
			}
		}
		// The restart is synchronous in the goroutine; wait for it, then
		// resolve whatever the crash left in doubt and audit.
		time.Sleep(400 * time.Millisecond)
		recoverClean(b.name)
		auditUnit(u, b.name)
	}

	// Phase 3 — the stranded compensation: the csv victim's INSERT
	// autocommits cleanly (write-through, durable across the coming
	// crash); the two-phase victim dies before its vote, aborting the
	// vital set; the compensation's DELETE then finds the csv site dead
	// — killed just before the statement lands — so the multitransaction
	// stays open in the journal, compensation owed, until recovery
	// replays it against the restarted site.
	kcC.killOnExecPrefix.Store("DELETE")
	kcA.killBeforePrepare.Store(true)
	compUnit := plan.UnitFor(nextID, []string{csvVictim.DB, relVictims[0].DB}, []bool{true, true})
	nextID++
	go func() {
		time.Sleep(250 * time.Millisecond)
		if victimA.Restart() == nil {
			incidents.add("restart", relVictims[0].DB)
		}
	}()
	res, err := fed.ExecScript(compUnit.Script)
	record(compUnit, false, res, err)
	time.Sleep(400 * time.Millisecond)
	if err := victimC.Restart(); err != nil {
		t.Fatalf("csv victim restart: %v", err)
	}
	incidents.add("restart", csvVictim.DB)
	compRep := recoverClean("comp-replay")
	if len(compRep.CompRuns) == 0 {
		t.Error("recovery never replayed the owed compensation (CompRuns empty)")
	}
	auditUnit(compUnit, "comp-replay")
	if n := countAt(csvVictim.DB, compUnit.RowID); n != 0 {
		t.Errorf("csv victim still holds %d rows of the compensated unit, want 0 after comp replay", n)
	}

	// Phase 4 — breaker-tripping flaps: blackhole the proxied sites,
	// fail statements into them until the breakers latch open, then
	// assert the degradation contract both ways.
	fed.CallTimeout = 300 * time.Millisecond
	for svc, px := range proxyOf {
		px.SetBlackhole(true)
		incidents.add("blackhole", svc)
	}
	darkDB := proxied[0].DB
	probe := fmt.Sprintf("USE %s VITAL %s\nSELECT owner%% FROM acct%%", healthyRel.DB, darkDB)
	// Only the sessions' first requests reach the dark site (a remote
	// Open sends nothing); under the mutation "lazy Open records success"
	// each probe's open resets the count and this loop times out.
	deadline := time.Now().Add(60 * time.Second)
	for {
		px := proxyOf[proxied[0].Service]
		if breakerState(t, fed, px.Addr()) == lam.BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped during the flap phase")
		}
		_, _ = fed.ExecScript(probe)
	}
	incidents.add("breaker-open", proxied[0].Service)
	// Non-vital behind the open breaker: degraded, answered.
	results, err := fed.ExecScript(probe)
	if err != nil {
		t.Fatalf("non-vital degraded query failed: %v", err)
	}
	degraded := results[len(results)-1].Degraded
	if len(degraded) != 1 || degraded[0].Entry != darkDB {
		t.Fatalf("degraded = %v, want [%s]", degraded, darkDB)
	}
	// Vital behind the open breaker: the unit fails, never degrades.
	vitalProbe := fmt.Sprintf("USE %s %s VITAL\nSELECT owner%% FROM acct%%", healthyRel.DB, darkDB)
	if res, err := fed.ExecScript(vitalProbe); err == nil {
		t.Fatalf("vital entry behind open breaker answered: %+v", res[len(results)-1])
	}
	// Flap closed: the sites heal, the cooldown half-opens the breakers,
	// and a vital unit through a previously-dark site commits again.
	for svc, px := range proxyOf {
		px.SetBlackhole(false)
		incidents.add("heal", svc)
	}
	fed.CallTimeout = 2 * time.Second
	healUnit := plan.UnitFor(nextID, []string{darkDB, healthyRel.DB}, []bool{true, true})
	nextID++
	deadline = time.Now().Add(60 * time.Second)
	for {
		res, err := fed.ExecScript(healUnit.Script)
		if err == nil && res[len(res)-1].State == core.StateSuccess {
			record(healUnit, true, res, nil)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed site never committed again: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	incidents.add("breaker-closed", proxied[0].Service)

	// Phase 5 — drain. A final recovery pass (parallel across sites)
	// confirms no multitransaction remains open, and its orphan sweep
	// mops up participant-side strays.
	recoveryStart := time.Now()
	recoverClean("final-drain")
	recoveryElapsed := time.Since(recoveryStart)

	// ---- Machine-checked invariants ----

	// (1) VITAL atomicity and exactly-once: for every audited unit the
	// vital sites agree — all applied once or none — and no site ever
	// double-applied. (Crash-window units were audited inline, right
	// after their own recovery.)
	for _, u := range attempted {
		auditUnit(u, "final")
	}

	// (2) Autocommit-only sites were never asked to prepare: the
	// in-process servers' counters stay zero and the csv victim's
	// participant journal never saw a session.
	for _, s := range fleet.Sites {
		if s.Spec.AutoCommitOnly() {
			if n := s.Server.Stats().Prepares; n != 0 {
				t.Errorf("autocommit-only site %s: %d prepare requests", s.Spec.Service, n)
			}
		}
	}
	if sessions := participantSessions(t, victimC.Journal()); len(sessions) != 0 {
		t.Errorf("csv victim journal holds %d sessions; a site without prepare must never journal one", len(sessions))
	}

	// (3) Both journal tiers drain to zero in-doubt sessions.
	journals := []string{victimA.Journal(), victimB.Journal(), victimC.Journal()}
	for _, s := range fleet.Sites {
		journals = append(journals, s.JournalPath)
	}
	waitDrained(t, coordJournal, journals...)

	// (4) No site still parks an in-doubt session on the wire.
	for _, s := range fleet.Sites {
		if ds, err := inDoubtAt(s.Addr()); err != nil {
			t.Errorf("in-doubt query %s: %v", s.Spec.Service, err)
		} else if len(ds) != 0 {
			t.Errorf("site %s still parks %d in-doubt sessions", s.Spec.Service, len(ds))
		}
	}

	obs.SetSlowQueryLog(nil)
	slowFile.Close()

	// Artifacts: the chaos incident journal and the slow-query log —
	// uploaded by CI.
	incidents.dump(filepath.Join(dir, "incidents.jsonl"))
	if artifacts != "" {
		if err := os.MkdirAll(artifacts, 0o755); err == nil {
			_ = copyFile(filepath.Join(dir, "incidents.jsonl"), filepath.Join(artifacts, "incidents.jsonl"))
			_ = copyFile(slowPath, filepath.Join(artifacts, "topology-slow-query.log"))
		}
	}
	t.Logf("topology soak: %d sites, %d units (%d commits, %d aborts, %d unresolved), recovery %v",
		nSites, len(attempted), commits.Load(), aborts.Load(), unresolved.Load(), recoveryElapsed)

	if c := commits.Load(); c < int64(len(units)/2) {
		t.Errorf("commits = %d of %d background units — the soak barely loaded the fleet", c, len(units))
	}
}

// inDoubtAt lists the sessions the LAM at addr parks in doubt, asked
// through a client of its own.
func inDoubtAt(addr string) ([]wire.InDoubtSession, error) {
	c, err := lam.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.InDoubt(bg)
}
