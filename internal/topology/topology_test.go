package topology

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"msql/internal/chaos"
	"msql/internal/core"
	"msql/internal/lam"
	"msql/internal/mtlog"
	"msql/internal/netfault"
)

// TestMain routes chaos child processes (the soak's SIGKILL victims)
// before any test runs.
func TestMain(m *testing.M) {
	if chaos.IsCoordChild() {
		chaos.CoordMain()
	}
	if chaos.IsChild() {
		chaos.ChildMain()
	}
	os.Exit(m.Run())
}

// TestGenerateDeterministic: the same spec always yields the same plan
// and workload; a different seed yields a different layout.
func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Sites: 50, Seed: 7}
	a, b := Generate(spec), Generate(spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec generated different plans")
	}
	if len(a.Sites) != 50 {
		t.Fatalf("sites = %d, want 50", len(a.Sites))
	}
	ua, ub := a.Units(11, 40), b.Units(11, 40)
	if !reflect.DeepEqual(ua, ub) {
		t.Fatal("same seed generated different workloads")
	}
	c := Generate(Spec{Sites: 50, Seed: 8})
	if reflect.DeepEqual(a.Sites, c.Sites) {
		t.Fatal("different seeds generated identical site layouts")
	}

	// The mix is real: all three profiles present, csv sites marked
	// autocommit-only, every site bootstraps acct.
	byProfile := map[string]int{}
	for _, s := range a.Sites {
		byProfile[s.Profile]++
		if (s.Profile == ProfileAutoCommit) != s.AutoCommitOnly {
			t.Fatalf("site %s: profile %s but AutoCommitOnly=%v", s.Service, s.Profile, s.AutoCommitOnly)
		}
		if (s.Backend == BackendCSV) != s.AutoCommitOnly {
			t.Fatalf("site %s: backend %s mismatched with AutoCommitOnly=%v", s.Service, s.Backend, s.AutoCommitOnly)
		}
		if s.Tables[0] != "acct" || len(s.Boot) == 0 {
			t.Fatalf("site %s: tables %v boot %d", s.Service, s.Tables, len(s.Boot))
		}
	}
	for _, prof := range []string{ProfileOracle, ProfileIngres, ProfileAutoCommit} {
		if byProfile[prof] == 0 {
			t.Fatalf("no %s sites in a 50-site fleet: %v", prof, byProfile)
		}
	}

	// Workload units carry compensation exactly for vital
	// autocommit-only entries.
	autocommit := map[string]bool{}
	for _, s := range a.Sites {
		autocommit[s.DB] = s.AutoCommitOnly
	}
	sawComp := false
	for _, u := range ua {
		for _, db := range u.CompVital {
			if !autocommit[db] {
				t.Fatalf("unit %d compensates two-phase site %s", u.ID, db)
			}
			sawComp = true
		}
		for _, db := range u.Vital {
			if autocommit[db] {
				found := false
				for _, c := range u.CompVital {
					found = found || c == db
				}
				if !found {
					t.Fatalf("unit %d: vital autocommit-only %s lacks compensation", u.ID, db)
				}
			}
		}
	}
	if !sawComp {
		t.Fatal("40 units over a mixed fleet produced no compensated vital entries")
	}
}

// federate builds a journaled federation over a fleet using its
// scenario script, with the capability checks live (the INCORPORATE
// dial fetches each site's real profile).
func federate(t *testing.T, f *Fleet) *core.Federation {
	t.Helper()
	fed := core.New()
	fed.SetRecovery(lam.RetryPolicy{Attempts: 6, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 100 * time.Millisecond}, time.Second)
	if _, err := fed.ExecScript(f.Script()); err != nil {
		t.Fatalf("federate: %v", err)
	}
	j, err := mtlog.Open(filepath.Join(t.TempDir(), "coord.journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	fed.SetJournal(j)
	return fed
}

// TestFleetRunsMixedCapabilityUnits: an 8-site fleet federates through
// its emitted script and commits generated units across two-phase,
// Ingres-like, and compensation-based sites — with vital atomicity and
// exactly-once effects verified against every site's ground truth, and
// autocommit-only sites never asked to prepare.
func TestFleetRunsMixedCapabilityUnits(t *testing.T) {
	p := Generate(Spec{Sites: 8, Seed: 3})
	fleet, err := p.Launch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	fed := federate(t, fleet)

	units := p.Units(5, 12)
	for _, u := range units {
		results, err := fed.ExecScript(u.Script)
		if err != nil {
			t.Fatalf("unit %d (%s): %v", u.ID, u.Script, err)
		}
		sync := results[len(results)-1]
		if sync.State != core.StateSuccess {
			t.Fatalf("unit %d state = %s (tasks %v)", u.ID, sync.State, sync.TaskStates)
		}
		for _, db := range u.Databases() {
			site := fleet.Site(p.serviceOf(db))
			n, err := site.RowCount(u.RowID)
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("unit %d: %s row count = %d, want exactly 1", u.ID, db, n)
			}
		}
	}
	// The capability invariant: no autocommit-only site ever saw a
	// prepare request.
	for _, s := range fleet.Sites {
		if s.Spec.AutoCommitOnly {
			if n := s.Server.Stats().Prepares; n != 0 {
				t.Fatalf("autocommit-only site %s was asked to prepare %d times", s.Spec.Service, n)
			}
		}
	}
}

// serviceOf maps a database back to its site's service name.
func (p *Plan) serviceOf(db string) string {
	for _, s := range p.Sites {
		if s.DB == db {
			return s.Service
		}
	}
	return ""
}

// breakerState reads the circuit breaker of the client the federation
// dialed for site.
func breakerState(t *testing.T, fed *core.Federation, site string) lam.BreakerState {
	t.Helper()
	c, err := fed.Resolve(site)
	if err != nil {
		t.Fatal(err)
	}
	return c.(*lam.Remote).BreakerState()
}

// vitalBreakerFleet stands up a two-site fleet with the named backend
// site behind a netfault proxy, trips the proxy's breaker, and returns
// the federation plus the dark site's database name.
func vitalBreakerFleet(t *testing.T, backendSite SiteSpec, healthySite SiteSpec) (*core.Federation, string, *netfault.Proxy) {
	t.Helper()
	dir := t.TempDir()
	dark, err := launchSite(dir, backendSite, Spec{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dark.TCP.Close(); dark.Server.Close() })
	healthy, err := launchSite(dir, healthySite, Spec{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthy.TCP.Close(); healthy.Server.Close() })

	proxy, err := netfault.New(dark.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	fed := core.New()
	fed.CallTimeout = 150 * time.Millisecond
	fed.SetBreaker(lam.BreakerPolicy{Threshold: 1, Cooldown: time.Hour})

	mode := "NOCOMMIT"
	if backendSite.AutoCommitOnly {
		mode = "COMMIT"
	}
	setup := fmt.Sprintf(`
INCORPORATE SERVICE %s SITE '%s' CONNECTMODE CONNECT COMMITMODE %s;
INCORPORATE SERVICE %s SITE '%s' CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE %s FROM SERVICE %s;
IMPORT DATABASE %s FROM SERVICE %s;
`, backendSite.Service, proxy.Addr(), mode,
		healthySite.Service, healthy.Addr(),
		backendSite.DB, backendSite.Service,
		healthySite.DB, healthySite.Service)
	if _, err := fed.ExecScript(setup); err != nil {
		t.Fatal(err)
	}

	// Trip the breaker: black-hole the proxy and fail statements into it
	// until the open state latches.
	proxy.SetBlackhole(true)
	probe := fmt.Sprintf("USE %s %s VITAL\nSELECT owner%% FROM acct%%", healthySite.DB, backendSite.DB)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if breakerState(t, fed, proxy.Addr()) == lam.BreakerOpen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never tripped")
		}
		_, _ = fed.ExecScript(probe)
	}
	return fed, backendSite.DB, proxy
}

// The satellite invariant, per backend: a VITAL scope entry behind an
// open breaker must fail the multitransaction — never silently land in
// Result.Degraded — while the same entry NON VITAL degrades cleanly.
func testVitalBehindOpenBreaker(t *testing.T, darkSpec SiteSpec) {
	healthy := SiteSpec{Index: 1, Service: "svc_ok", DB: "dbok", Backend: BackendRel,
		Profile: ProfileOracle}
	healthy.Tables = []string{"acct"}
	healthy.Boot = bootSQL(healthy.Tables, 2)
	fed, darkDB, _ := vitalBreakerFleet(t, darkSpec, healthy)

	// VITAL: the unit must fail outright.
	vital := fmt.Sprintf("USE dbok %s VITAL\nSELECT owner%% FROM acct%%", darkDB)
	results, err := fed.ExecScript(vital)
	if err == nil {
		res := results[len(results)-1]
		t.Fatalf("vital entry behind an open breaker answered: degraded=%v state=%s — must fail, never degrade",
			res.Degraded, res.State)
	}

	// NON VITAL: same site, same breaker — degrades with the partial
	// result from the healthy site.
	nonvital := fmt.Sprintf("USE dbok VITAL %s\nSELECT owner%% FROM acct%%", darkDB)
	results, err = fed.ExecScript(nonvital)
	if err != nil {
		t.Fatalf("non-vital degraded query failed: %v", err)
	}
	res := results[len(results)-1]
	if len(res.Degraded) != 1 || res.Degraded[0].Entry != darkDB {
		t.Fatalf("degraded = %v, want [%s]", res.Degraded, darkDB)
	}
	if res.Multitable == nil || len(res.Multitable.Tables) != 1 {
		t.Fatalf("multitable = %+v, want the healthy site's partial result", res.Multitable)
	}
}

func TestVitalBehindOpenBreakerRelBackend(t *testing.T) {
	dark := SiteSpec{Index: 0, Service: "svc_dark", DB: "dbdark",
		Backend: BackendRel, Profile: ProfileOracle}
	dark.Tables = []string{"acct"}
	dark.Boot = bootSQL(dark.Tables, 2)
	testVitalBehindOpenBreaker(t, dark)
}

func TestVitalBehindOpenBreakerCSVBackend(t *testing.T) {
	dark := SiteSpec{Index: 0, Service: "svc_dark", DB: "dbdark",
		Backend: BackendCSV, Profile: ProfileAutoCommit, AutoCommitOnly: true}
	dark.Tables = []string{"acct"}
	dark.Boot = bootSQL(dark.Tables, 2)
	testVitalBehindOpenBreaker(t, dark)
}
