package topology

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msql/internal/admit"
	"msql/internal/mdserver"
)

// The churn soak: a coordinator child serving two LAM children, loaded
// by dozens of concurrent client sessions that commit two-site vital
// units while a fraction of them hang up mid-2PC, the admission
// controller sheds overload, and the coordinator is SIGKILLed and
// recovered under load. The acceptance bar is the robustness
// tentpole's: after recovery both journal tiers drain to empty — zero
// stranded in-doubt sessions — overload is answered with ErrOverload
// rather than unbounded queueing, and tail latency stays bounded.

const (
	soakClients   = 36
	soakTables    = 4 // disjoint table pairs limit lock serialization
	soakTenants   = 4
	soakLoadPhase = 1500 * time.Millisecond
	// soakPhaseCommits is what each load phase must commit before it
	// ends: on a loaded box a fixed-length phase can fall short of the
	// commit floor without anything being wrong.
	soakPhaseCommits = 6
)

func soakBoot() []string {
	boot := make([]string, 0, soakTables)
	for i := 0; i < soakTables; i++ {
		boot = append(boot, fmt.Sprintf(
			"CREATE TABLE booking%d (id INTEGER, who CHAR(20), amt FLOAT)", i))
	}
	return boot
}

// soakCounters aggregates worker outcomes.
type soakCounters struct {
	commits  atomic.Int64
	aborts   atomic.Int64
	sheds    atomic.Int64
	abandons atomic.Int64
	connErrs atomic.Int64

	latMu sync.Mutex
	lats  []time.Duration
}

func (c *soakCounters) recordLatency(d time.Duration) {
	c.latMu.Lock()
	c.lats = append(c.lats, d)
	c.latMu.Unlock()
}

func (c *soakCounters) p99() time.Duration {
	c.latMu.Lock()
	defer c.latMu.Unlock()
	if len(c.lats) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), c.lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)*99)/100]
}

// soakWorker drives one client identity: redial through coordinator
// crashes, commit two-site units, occasionally abandon the connection
// mid-script, back off briefly on shed.
func soakWorker(id int, addr string, stop <-chan struct{}, ctr *soakCounters) {
	rng := rand.New(rand.NewSource(int64(id)*7919 + 13))
	tenant := fmt.Sprintf("t%d", id%soakTenants)
	var c *mdserver.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	n := 0
	for running() {
		if c == nil {
			cc, err := mdserver.Dial(addr, tenant)
			if err != nil {
				ctr.connErrs.Add(1)
				time.Sleep(20 * time.Millisecond)
				continue
			}
			c = cc
		}
		n++
		key := id*1_000_000 + n
		tbl := id % soakTables
		// The %-suffixed unqualified name fans the INSERT out to both
		// scope databases inside one vital unit: a genuine two-site 2PC
		// per operation, not two independent single-site commits.
		src := fmt.Sprintf(`USE delta VITAL united VITAL;
INSERT INTO booking%d%% VALUES (%d, 'c%d', 1.0);
COMMIT;`, tbl, key, id)

		if rng.Intn(100) < 15 {
			// Mid-2PC disconnect: fire the script and hang up without
			// reading the reply. The server must cancel the session and
			// terminate the unit cleanly on its own.
			done := make(chan struct{})
			go func(cl *mdserver.Client) {
				defer close(done)
				_, _ = cl.Script(context.Background(), src)
			}(c)
			time.Sleep(time.Duration(rng.Intn(4)) * time.Millisecond)
			c.Close()
			<-done
			c = nil
			ctr.abandons.Add(1)
			continue
		}

		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		start := time.Now()
		res, err := c.Script(ctx, src)
		cancel()
		switch {
		case err == nil:
			committed := false
			for _, r := range res {
				if r.Kind == "sync" && r.State == "success" {
					committed = true
				}
			}
			if committed {
				ctr.commits.Add(1)
				ctr.recordLatency(time.Since(start))
			} else {
				ctr.aborts.Add(1) // lock timeout etc.: clean abort, not an error
			}
		case errors.Is(err, admit.ErrOverload):
			// Shed, not queued: the connection stays usable; back off.
			ctr.sheds.Add(1)
			time.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
		default:
			// Transport failure (likely the coordinator crash): discard
			// the connection and redial.
			ctr.connErrs.Add(1)
			c.Close()
			c = nil
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// loadPhase lets the workers load for at least soakLoadPhase and until
// the phase has committed soakPhaseCommits units, giving up at four
// times soakLoadPhase so that a soak which never loads still ends, and
// fails the commit floor.
func loadPhase(ctr *soakCounters) {
	start, base := time.Now(), ctr.commits.Load()
	time.Sleep(soakLoadPhase)
	for ctr.commits.Load()-base < soakPhaseCommits && time.Since(start) < 4*soakLoadPhase {
		time.Sleep(20 * time.Millisecond)
	}
}

func TestChurnSoak(t *testing.T) {
	dir := t.TempDir()
	artifacts := saveOnFailure(t, dir)

	// Two participant LAM children. A short tombstone TTL: acknowledgments
	// lost to the coordinator crash must not pin their journals forever.
	launchLAM := func(service, db string) (SiteSpec, *Proc) {
		s := SiteSpec{Service: service, DB: db, Boot: soakBoot()}
		p, err := LaunchSite(dir, s, 1500*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		return s, p
	}
	deltaSite, delta := launchLAM("svc_delta", "delta")
	unitedSite, united := launchLAM("svc_unit", "united")

	// The coordinator child: tight admission so overload is observable,
	// the slow-query log on at 1ms across both incarnations.
	coord, err := launchCoord(dir, []SiteSpec{deltaSite, unitedSite}, map[string]string{
		deltaSite.Service: delta.Addr(), unitedSite.Service: united.Addr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Stop)

	ctr := &soakCounters{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < soakClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			soakWorker(i, coord.Addr(), stop, ctr)
		}(i)
	}

	// Phase 1: load. Then the crash: SIGKILL mid-traffic, restart on the
	// same journal — Restart returns only after the child's recovery
	// (journal replay + orphan sweep) finished. Phase 2: load again.
	loadPhase(ctr)
	if err := coord.Kill(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let workers hit the dead server
	if err := coord.Restart(); err != nil {
		t.Fatal(err)
	}
	loadPhase(ctr)
	close(stop)
	wg.Wait()

	t.Logf("soak: %d commits, %d clean aborts, %d sheds, %d abandons, %d conn errors, p99 %v",
		ctr.commits.Load(), ctr.aborts.Load(), ctr.sheds.Load(),
		ctr.abandons.Load(), ctr.connErrs.Load(), ctr.p99())

	// The soak only proves something if every churn ingredient actually
	// occurred.
	if c := ctr.commits.Load(); c < 12 {
		t.Errorf("commits = %d, want a meaningfully loaded soak (>= 12)", c)
	}
	if s := ctr.sheds.Load(); s == 0 {
		t.Error("no ErrOverload sheds observed; admission control never engaged")
	}
	if a := ctr.abandons.Load(); a == 0 {
		t.Error("no mid-2PC disconnects occurred")
	}
	if p99 := ctr.p99(); p99 > 10*time.Second {
		t.Errorf("p99 latency %v, want bounded under churn", p99)
	}

	// A final crash+recover mops up whatever the load's tail stranded,
	// then both journal tiers must drain completely: no multitransaction
	// without an end record, no participant session without its
	// acknowledgment — zero stranded in-doubt sessions anywhere.
	if err := coord.Restart(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, coord.Journal(), delta.Journal(), united.Journal())

	// And the recovered coordinator still serves: a fresh client commits
	// a two-site unit end to end.
	c, err := mdserver.Dial(coord.Addr(), "verifier")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Script(context.Background(), `USE delta VITAL united VITAL;
INSERT INTO booking0% VALUES (999999999, 'verify', 1.0);
COMMIT;`)
	if err != nil {
		t.Fatalf("post-recovery unit: %v", err)
	}
	committed := false
	for _, r := range res {
		if r.Kind == "sync" && r.State == "success" {
			committed = true
		}
	}
	if !committed {
		t.Fatalf("post-recovery unit did not commit: %+v", res)
	}

	// The slow-query log is part of the soak's deliverable: statements
	// crossed the 1ms threshold in both coordinator incarnations, every
	// line is well-formed JSON, and the file is saved for the CI artifact
	// upload whether or not the test failed.
	data, err := os.ReadFile(coordSlowLog(dir))
	if err != nil {
		t.Fatalf("slow-query log: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(data) == 0 || len(lines) == 0 {
		t.Error("slow-query log is empty after a loaded soak")
	}
	for i, line := range lines {
		var e struct {
			SQL       string  `json:"sql"`
			ElapsedMS float64 `json:"elapsed_ms"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("slow-query log line %d is not JSON: %q: %v", i+1, line, err)
		}
		if e.SQL == "" || e.ElapsedMS < 1 {
			t.Fatalf("slow-query log line %d below threshold or missing sql: %q", i+1, line)
		}
	}
	t.Logf("slow-query log: %d entries over the 1ms threshold", len(lines))
	if artifacts != "" {
		if err := os.MkdirAll(artifacts, 0o755); err == nil {
			_ = os.WriteFile(filepath.Join(artifacts, "churn-slow-query.log"), data, 0o644)
		}
	}
}
