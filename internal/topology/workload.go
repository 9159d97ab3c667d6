package topology

import (
	"fmt"
	"math/rand"
	"strings"
)

// unitRowBase offsets workload row ids away from the seeded base rows.
const unitRowBase = 100000

// Unit is one generated multitransaction: a vital-set INSERT fanned
// across a random mixed-capability site subset, with compensation
// attached for every vital autocommit-only entry (the translator
// rejects a vital subquery on a site that cannot hold a prepared state
// unless a COMP clause covers it).
type Unit struct {
	ID    int
	RowID int // the unique acct id this unit inserts everywhere
	// Script is the multidatabase SQL, ending in an explicit COMMIT.
	Script string
	// Vital and NonVital list the scope databases by designation.
	Vital    []string
	NonVital []string
	// CompVital lists the vital entries riding on compensation instead
	// of 2PC (autocommit-only sites).
	CompVital []string
}

// Databases returns every scope database of the unit.
func (u *Unit) Databases() []string {
	return append(append([]string(nil), u.Vital...), u.NonVital...)
}

// UnitFor builds a unit over the named scope databases (vital flags
// parallel dbs); crash tests use it to aim a multitransaction at
// specific victim sites. Compensation is attached for every vital
// autocommit-only entry.
func (p *Plan) UnitFor(id int, dbs []string, vital []bool) *Unit {
	u := &Unit{ID: id, RowID: unitRowBase + id}
	autocommit := make(map[string]bool, len(p.Sites))
	for _, s := range p.Sites {
		autocommit[s.DB] = autoCommitOnly(s)
	}
	var use []string
	var comps []string
	for i, db := range dbs {
		if vital[i] {
			use = append(use, db+" VITAL")
			u.Vital = append(u.Vital, db)
			if autocommit[db] {
				u.CompVital = append(u.CompVital, db)
				comps = append(comps, fmt.Sprintf(
					"COMP %s\nDELETE FROM acct WHERE id = %d", db, u.RowID))
			}
		} else {
			use = append(use, db)
			u.NonVital = append(u.NonVital, db)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "USE %s\n", strings.Join(use, " "))
	fmt.Fprintf(&b, "INSERT INTO acct%% VALUES (%d, 'u%d', 10.0)\n", u.RowID, u.ID)
	for _, c := range comps {
		b.WriteString(c + "\n")
	}
	b.WriteString("COMMIT;")
	u.Script = b.String()
	return u
}

// Units deterministically generates n workload multitransactions over
// the plan. Each unit picks 2–4 distinct sites (at least two vital, the
// rest by coin flip), inserts one unique acct row on every scope
// database through the multitable name acct%, and attaches a DELETE
// compensation for each vital autocommit-only entry. The same seed
// always yields the same workload, so a failing scenario replays.
func (p *Plan) Units(seed int64, n int) []*Unit {
	rng := rand.New(rand.NewSource(seed))
	units := make([]*Unit, 0, n)
	for i := 0; i < n; i++ {
		width := 2 + rng.Intn(3)
		if width > len(p.Sites) {
			width = len(p.Sites)
		}
		var dbs []string
		var vital []bool
		for j, idx := range rng.Perm(len(p.Sites))[:width] {
			dbs = append(dbs, p.Sites[idx].DB)
			vital = append(vital, j < 2 || rng.Intn(2) == 0)
		}
		units = append(units, p.UnitFor(i, dbs, vital))
	}
	return units
}
