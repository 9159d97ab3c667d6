package sqlengine_test

import (
	"testing"

	"msql/internal/relbackend"
	"msql/internal/relstore"
	"msql/internal/sqlengine"
)

// TestAllocationCeilings pins the allocations of one statement, begin to
// rollback, on the micro-benchmarks' fixtures. Unlike a timing, the
// count does not depend on the machine or its load. Each ceiling sits
// about 5 % above the figure measured when it was set: a change that
// cuts allocations lowers the ceiling with it, and one that raises a
// ceiling says why.
func TestAllocationCeilings(t *testing.T) {
	if raceEnabled {
		// Under -race the same UPDATE reads 4,805, not 4,227: the
		// detector's runtime allocates on its own account.
		t.Skip("allocation counts differ under the race detector")
	}
	big, small := benchDB(t, 2000), benchDB(t, 1000)
	addJoinTable(t, big)
	for _, tc := range []struct {
		name    string
		s       *relstore.Store
		q       string
		ceiling float64
	}{
		{"full scan", big, "SELECT id, grp, val FROM t", 6415},                // measured 6,109
		{"BenchmarkSelectFilter", big, filterQuery, 559},                      // measured 532
		{"BenchmarkHashJoin", big, hashJoinQuery, 18928},                      // measured 18,026
		{"BenchmarkUpdateWhere/non-key-predicate", small, nonKeyUpdate, 4438}, // measured 4,227
	} {
		allocs := testing.AllocsPerRun(5, func() {
			tx := tc.s.Begin()
			defer tx.Rollback()
			if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "d", tc.q); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocations per statement, ceiling %.0f", tc.name, allocs, tc.ceiling)
		}
	}
}
