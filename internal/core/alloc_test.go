package core

import (
	"fmt"
	"testing"

	"msql/internal/ldbms"
)

// TestAllocationCeilings pins the allocations of one statement over
// loopback TCP LAMs, coordinator and sites together, for the four
// shapes the benchmark's workloads run: a fan-out read, a VITAL 2PC
// update, a compensated saga on a csv site and a cross-site join that
// ships. The count covers the whole process, so it includes both ends
// of every wire exchange. Unlike a timing it does not depend on the
// machine or its load. Each ceiling sits about 5 % above the figure
// measured when it was set: a change that cuts allocations lowers the
// ceiling with it, and one that raises a ceiling says why.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	fed, _ := tcpFederation(t)
	addCSVSite(t, fed)
	key := 1000
	for _, tc := range []struct {
		name    string
		script  func() string
		ceiling float64
	}{
		{"2-site select", func() string {
			return "USE continental united\nSELECT rate% FROM flight%"
		}, 446}, // measured 425
		{"vital update", func() string {
			return "USE continental VITAL united VITAL\nUPDATE flight% SET rate% = rate% * 1.0 WHERE sour% = 'Houston'\nCOMMIT"
		}, 737}, // measured 702
		// Inserts alternate with their undos, each a VITAL unit
		// compensated at the csv site, so the tables keep their size.
		{"comp saga", func() string {
			key++
			if key%2 == 1 {
				return fmt.Sprintf("USE regional VITAL continental VITAL\n"+
					"INSERT INTO flights VALUES (%d, 'Waco', '07:00', 'Tyler', '08:00', 'sat', 40.0)\nCOMP regional\nDELETE FROM flights WHERE flnu = %d\nCOMMIT",
					key, key)
			}
			return fmt.Sprintf("USE regional VITAL continental VITAL\n"+
				"DELETE FROM flights WHERE flnu = %d\nCOMP regional\nINSERT INTO flights VALUES (%d, 'Waco', '07:00', 'Tyler', '08:00', 'sat', 40.0)\nCOMMIT",
				key-1, key-1)
		}, 597}, // measured 569
		{"cross join ship", func() string {
			return "USE continental united\nSELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.rate < u.rates"
		}, 855}, // measured 814
	} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(50, func() {
				results, err := fed.ExecScript(tc.script())
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range results {
					if (r.Kind == KindSync || r.Kind == KindGlobalDML) && r.State != StateSuccess {
						t.Fatalf("state = %s", r.State)
					}
				}
			})
			t.Logf("%.0f allocations per statement", allocs)
			if allocs > tc.ceiling {
				t.Errorf("%.0f allocations per statement, ceiling %.0f", allocs, tc.ceiling)
			}
		})
	}
}

// addCSVSite serves an autocommit-only csv database, regional, whose
// flights table has continental's columns, and incorporates it into fed
// over a TCP LAM.
func addCSVSite(t *testing.T, fed *Federation) {
	t.Helper()
	cont := paperSites("continental")[0]
	ts := serveLAM(t, openSite(t, ldbms.Spec{Service: "svc_csv", Profile: ldbms.ProfileAutoCommitOnly(),
		Backend: ldbms.BackendCSV, Dir: t.TempDir(), DB: "regional", Boot: cont.Boot[:1]}))
	if _, err := fed.ExecScript(fmt.Sprintf(
		"INCORPORATE SERVICE svc_csv SITE '%s' CONNECTMODE CONNECT COMMITMODE COMMIT;\nIMPORT DATABASE regional FROM SERVICE svc_csv;",
		ts.Addr())); err != nil {
		t.Fatal(err)
	}
}
