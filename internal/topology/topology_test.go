package topology

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"msql/internal/core"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/netfault"
)

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

	// The mix is real: all three profiles present, csv sites
	// autocommit-only, every site bootstraps acct.
	byProfile := map[string]int{}
	for _, s := range a.Sites {
		byProfile[s.Profile.Name]++
		if (s.Backend == ldbms.BackendCSV) != autoCommitOnly(s) {
			t.Fatalf("site %s: backend %s mismatched with profile %s", s.Service, s.Backend, s.Profile.Name)
		}
		if len(s.Boot) == 0 || !strings.HasPrefix(s.Boot[0], "CREATE TABLE acct ") {
			t.Fatalf("site %s: boot %v does not create acct first", s.Service, s.Boot)
		}
	}
	for _, prof := range []string{"oracle-like", "ingres-like", "autocommit-only"} {
		if byProfile[prof] == 0 {
			t.Fatalf("no %s sites in a 50-site fleet: %v", prof, byProfile)
		}
	}

	// Workload units carry compensation exactly for vital
	// autocommit-only entries.
	autocommit := map[string]bool{}
	for _, s := range a.Sites {
		autocommit[s.DB] = autoCommitOnly(s)
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
		if autoCommitOnly(s.Spec) {
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

// vitalBreakerFleet stands up a two-site fleet with the dark site
// behind a netfault proxy, trips the proxy's breaker, and returns the
// federation plus the dark site's database name.
func vitalBreakerFleet(t *testing.T, darkSite ldbms.Spec, healthySite ldbms.Spec) (*core.Federation, string, *netfault.Proxy) {
	t.Helper()
	plan := &Plan{Sites: []ldbms.Spec{darkSite, healthySite}}
	fleet, err := plan.Launch(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	proxy, err := netfault.New(fleet.Site(darkSite.Service).Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })

	fed := core.New()
	fed.CallTimeout = 150 * time.Millisecond
	fed.SetBreaker(lam.BreakerPolicy{Threshold: 1, Cooldown: time.Hour})
	setup := plan.Script(func(s ldbms.Spec) string {
		if s.Service == darkSite.Service {
			return proxy.Addr()
		}
		return fleet.Site(s.Service).Addr()
	})
	if _, err := fed.ExecScript(setup); err != nil {
		t.Fatal(err)
	}

	// Trip the breaker: black-hole the proxy and fail statements into it
	// until the open state latches.
	proxy.SetBlackhole(true)
	probe := fmt.Sprintf("USE %s %s VITAL\nSELECT owner%% FROM acct%%", healthySite.DB, darkSite.DB)
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
	return fed, darkSite.DB, proxy
}

// The satellite invariant, per backend: a VITAL scope entry behind an
// open breaker must fail the multitransaction — never silently land in
// Result.Degraded — while the same entry NON VITAL degrades cleanly.
func testVitalBehindOpenBreaker(t *testing.T, darkSpec ldbms.Spec) {
	healthy := ldbms.Spec{Service: "svc_ok", DB: "dbok", Boot: bootSQL([]string{"acct"}, 2)}
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
	dark := ldbms.Spec{Service: "svc_dark", DB: "dbdark", Boot: bootSQL([]string{"acct"}, 2)}
	testVitalBehindOpenBreaker(t, dark)
}

func TestVitalBehindOpenBreakerCSVBackend(t *testing.T) {
	dark := ldbms.Spec{Service: "svc_dark", DB: "dbdark", Backend: ldbms.BackendCSV,
		Profile: ldbms.ProfileAutoCommitOnly(), Boot: bootSQL([]string{"acct"}, 2)}
	testVitalBehindOpenBreaker(t, dark)
}

// TestBuildAcrossProfiles: every profile on its backend is built,
// served, incorporated and imported through Plan.Script, and the AD
// entry carries the profile's CONNECTMODE and COMMITMODE (and, from the
// live profile, the Ingres DDL autocommit).
func TestBuildAcrossProfiles(t *testing.T) {
	for _, tc := range []struct {
		name                string
		profile             ldbms.Profile
		backend             string
		connect, autocommit bool
	}{
		{"oracle", ldbms.ProfileOracleLike(), ldbms.BackendRel, true, false},
		{"ingres", ldbms.ProfileIngresLike(), ldbms.BackendRel, true, false},
		{"sybase", ldbms.ProfileSybaseLike(), ldbms.BackendRel, false, false},
		{"autocommit", ldbms.ProfileAutoCommitOnly(), ldbms.BackendCSV, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			site := ldbms.Spec{Service: "svc_" + tc.name, DB: "db_" + tc.name,
				Backend: tc.backend, Profile: tc.profile, Boot: bootSQL([]string{"acct"}, 2)}
			fleet, err := (&Plan{Sites: []ldbms.Spec{site}}).Launch(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(fleet.Close)
			fed := core.New()
			if _, err := fed.ExecScript(fleet.Script()); err != nil {
				t.Fatalf("federate: %v", err)
			}
			entry, err := fed.AD.Lookup(site.Service)
			if err != nil {
				t.Fatal(err)
			}
			if entry.Connect != tc.connect || entry.AutoCommitOnly != tc.autocommit ||
				entry.DDLCommit["CREATE"] != (tc.name == "ingres") {
				t.Fatalf("AD entry CONNECT=%v COMMIT=%v DDLCommit=%v, want %v %v", entry.Connect,
					entry.AutoCommitOnly, entry.DDLCommit, tc.connect, tc.autocommit)
			}
			results, err := fed.ExecScript(fmt.Sprintf("USE %s; SELECT id FROM acct", site.DB))
			if err != nil {
				t.Fatal(err)
			}
			if n := results[len(results)-1].Multitable.TotalRows(); n != 2 {
				t.Fatalf("imported acct rows = %d, want the 2 booted", n)
			}
		})
	}
}

// TestLaunchReopensCSVData: a fleet launched again on the same dir
// reopens its csv sites' tables there — a committed row is still
// present and the seed rows are not booted twice.
func TestLaunchReopensCSVData(t *testing.T) {
	dir := t.TempDir()
	plan := Generate(Spec{Sites: 4, Seed: 3})
	var csvSite ldbms.Spec
	for _, s := range plan.Sites {
		if s.Backend == ldbms.BackendCSV {
			csvSite = s
			break
		}
	}
	if csvSite.Service == "" {
		t.Fatal("no csv site in the plan")
	}
	ids := func(fleet *Fleet) []int64 {
		t.Helper()
		sess, err := fleet.Site(csvSite.Service).Server.OpenSession(csvSite.DB)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		res, err := sess.Exec("SELECT id FROM acct ORDER BY id")
		if err != nil {
			t.Fatal(err)
		}
		var out []int64
		for _, r := range res.Rows {
			out = append(out, r[0].I)
		}
		return out
	}

	fleet, err := plan.Launch(dir)
	if err != nil {
		t.Fatal(err)
	}
	fed := core.New()
	if _, err := fed.ExecScript(fleet.Script()); err != nil {
		fleet.Close()
		t.Fatal(err)
	}
	_, err = fed.ExecScript(fmt.Sprintf("USE %s\nINSERT INTO acct VALUES (77, 'kept', 1.0)\nCOMMIT", csvSite.DB))
	fleet.Close()
	if err != nil {
		t.Fatal(err)
	}

	fleet, err = plan.Launch(dir)
	if err != nil {
		t.Fatalf("relaunch: %v", err)
	}
	defer fleet.Close()
	want := []int64{1, 2, 3, 4, 77}
	if got := ids(fleet); !reflect.DeepEqual(got, want) {
		t.Fatalf("relaunched csv site holds ids %v, want %v (seed rows once, the committed row kept)", got, want)
	}
}
