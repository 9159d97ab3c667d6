package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"msql/internal/ldbms"
)

// The differential oracle for global SELECTs: a seeded random federation
// of 2-3 databases on memory, disk and csv sites — tables with and without
// a primary key, row counts skewed from empty to dozens — answers random
// cross-database SELECTs, and one relstore holding every table answers
// the same queries. Decomposition, the coordinator choice, shipping and
// Q' must not change the answer: results are bag-equal, or list-equal
// under ORDER BY, and the answer is labelled by the first FROM database.

// diffCols is every generated table's schema. t1_k is named like the
// column alias t1.k ships as, so Q' must keep the two apart.
const diffCols = "id INTEGER, k INTEGER, v INTEGER, s CHAR(8), t1_k INTEGER"

type diffTable struct {
	db, name string
	keyed    bool
	rows     []string // rendered VALUES tuples
}

// diffFederation builds seed's federation and its single-store twin.
func diffFederation(t testing.TB, rng *rand.Rand) (*Federation, *ldbms.Session, []diffTable, []string) {
	t.Helper()
	var tables []diffTable
	var dbs, refBoot []string
	var sites []ldbms.Spec
	for d := 0; d < 2+rng.Intn(2); d++ {
		site := ldbms.Spec{Service: fmt.Sprintf("svc_d%d", d), DB: fmt.Sprintf("d%d", d)}
		switch rng.Intn(3) {
		case 1:
			site.Dir, site.PoolPages = filepath.Join(t.TempDir(), site.Service), 16
		case 2:
			site.Dir, site.Backend = filepath.Join(t.TempDir(), site.Service), ldbms.BackendCSV
			site.Profile = ldbms.ProfileAutoCommitOnly()
		}
		db := site.DB
		for _, name := range []string{"a", "b"}[:1+rng.Intn(2)] {
			tb := diffTable{db: db, name: name, keyed: rng.Intn(2) == 0}
			sizes := []int{0, 1, 3, 8, 30, 60}
			for id := 0; id < sizes[rng.Intn(len(sizes))]; id++ {
				v := fmt.Sprint(rng.Intn(10))
				if rng.Intn(8) == 0 {
					v = "NULL"
				}
				tb.rows = append(tb.rows, fmt.Sprintf("(%d, %d, %s, '%c', %d)",
					id, rng.Intn(5), v, 'a'+rune(rng.Intn(3)), rng.Intn(5)))
			}
			ddl := diffCols
			if tb.keyed {
				ddl += ", PRIMARY KEY (id)"
			}
			site.Boot = append(site.Boot, fmt.Sprintf("CREATE TABLE %s (%s)", name, ddl))
			refBoot = append(refBoot, fmt.Sprintf("CREATE TABLE %s_%s (%s)", db, name, ddl))
			if len(tb.rows) > 0 {
				values := strings.Join(tb.rows, ", ")
				site.Boot = append(site.Boot, fmt.Sprintf("INSERT INTO %s VALUES %s", name, values))
				refBoot = append(refBoot, fmt.Sprintf("INSERT INTO %s_%s VALUES %s", db, name, values))
			}
			tables = append(tables, tb)
		}
		sites = append(sites, site)
		dbs = append(dbs, db)
	}
	f := localFederation(t, sites...)
	refSess, err := openSite(t, ldbms.Spec{Service: "svc_ref", DB: "ref", Boot: refBoot}).OpenSession("ref")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(refSess.Close)
	return f, refSess, tables, dbs
}

// diffQuery is one generated SELECT in both spellings.
type diffQuery struct {
	fed, ref string
	firstDB  string
	ordered  bool
}

// genQuery draws a cross-database SELECT over 2-3 distinct tables (the
// expansion of a global query keys its references by table, so one table
// under two aliases is out of its reach).
func genQuery(rng *rand.Rand, tables []diffTable) diffQuery {
	var refs []diffTable
	for {
		refs = refs[:0]
		for _, i := range rng.Perm(len(tables))[:min(len(tables), 2+rng.Intn(2))] {
			refs = append(refs, tables[i])
		}
		if refs[0].db != refs[1].db || len(refs) == 3 && refs[0].db != refs[2].db {
			break
		}
	}
	alias := func(i int) string { return fmt.Sprintf("t%d", i) }
	col := func(i int) string {
		return alias(i) + "." + []string{"id", "k", "v", "s", "t1_k"}[rng.Intn(5)]
	}
	numCol := func(i int) string { return alias(i) + "." + []string{"id", "k", "v", "t1_k"}[rng.Intn(4)] }

	var where []string
	for i := range refs {
		for n := rng.Intn(3); n > 0; n-- {
			switch rng.Intn(6) {
			case 0:
				where = append(where, fmt.Sprintf("%s.v = %d", alias(i), rng.Intn(10)))
			case 1:
				where = append(where, fmt.Sprintf("%s < %d", numCol(i), rng.Intn(10)))
			case 2:
				lo := rng.Intn(8)
				where = append(where, fmt.Sprintf("%s.v BETWEEN %d AND %d", alias(i), lo, lo+rng.Intn(4)))
			case 3:
				where = append(where, fmt.Sprintf("%s.s = '%c'", alias(i), 'a'+rune(rng.Intn(3))))
			case 4:
				where = append(where, fmt.Sprintf("%s.id = %d", alias(i), rng.Intn(10)))
			default:
				where = append(where, fmt.Sprintf("%s.k <> %d", alias(i), rng.Intn(5)))
			}
		}
	}
	for n := 1 + rng.Intn(2); n > 0; n-- {
		i, j := rng.Intn(len(refs)), rng.Intn(len(refs))
		if i == j {
			j = (i + 1) % len(refs)
		}
		switch rng.Intn(3) {
		case 0:
			where = append(where, fmt.Sprintf("%s.k = %s.k", alias(i), alias(j)))
		case 1:
			where = append(where, fmt.Sprintf("%s.t1_k = %s.k", alias(i), alias(j)))
		default:
			where = append(where, fmt.Sprintf("%s < %s", numCol(i), numCol(j)))
		}
	}

	var q diffQuery
	var sel, tail string
	switch rng.Intn(5) {
	case 0:
		sel = fmt.Sprintf("COUNT(%s) AS n", col(rng.Intn(len(refs))))
	case 1:
		g := col(rng.Intn(len(refs)))
		sel = fmt.Sprintf("%s, COUNT(%s) AS n", g, col(rng.Intn(len(refs))))
		tail = " GROUP BY " + g
	default:
		var items []string
		for i := range refs {
			if rng.Intn(3) > 0 || i == 0 {
				items = append(items, col(i))
			}
		}
		sel = strings.Join(items, ", ")
		if rng.Intn(3) == 0 {
			sel = "DISTINCT " + sel
		}
		if rng.Intn(2) == 0 {
			// Ordering by every projected column makes the list exact.
			tail, q.ordered = " ORDER BY "+strings.Join(items, ", "), true
		}
	}
	var from, refFrom []string
	for i, r := range refs {
		from = append(from, fmt.Sprintf("%s.%s %s", r.db, r.name, alias(i)))
		refFrom = append(refFrom, fmt.Sprintf("%s_%s %s", r.db, r.name, alias(i)))
	}
	body := " WHERE " + strings.Join(where, " AND ") + tail
	q.fed = "SELECT " + sel + " FROM " + strings.Join(from, ", ") + body
	q.ref = "SELECT " + sel + " FROM " + strings.Join(refFrom, ", ") + body
	q.firstDB = refs[0].db
	return q
}

// runDifferential checks one seed's federation against its twin.
func runDifferential(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f, ref, tables, dbs := diffFederation(t, rng)
	use := "USE " + strings.Join(dbs, " ") + "\n"
	for n := 0; n < 4; n++ {
		q := genQuery(rng, tables)
		results, err := f.ExecScript(use + q.fed)
		if err != nil {
			t.Fatalf("seed %d: %s: %v", seed, q.fed, err)
		}
		mt := results[len(results)-1].Multitable
		if mt == nil || len(mt.Tables) != 1 || mt.Tables[0].Database != q.firstDB {
			t.Fatalf("seed %d: %s: multitable %+v, want one table labelled %s", seed, q.fed, mt, q.firstDB)
		}
		want, err := ref.Exec(q.ref)
		if err != nil {
			t.Fatalf("seed %d: reference %s: %v", seed, q.ref, err)
		}
		got, exp := renderRows(mt.Tables[0].Rows), renderRows(want.Rows)
		if !q.ordered {
			sort.Strings(got)
			sort.Strings(exp)
		}
		if !reflect.DeepEqual(got, exp) {
			plan, _ := f.ExecScript(use + "EXPLAIN " + q.fed)
			t.Fatalf("seed %d: %s\n federation %v\n reference  %v\n%s", seed, q.fed, got, exp,
				plan[len(plan)-1].Plan.Render())
		}
	}
}

func renderRows[R ~[]V, V fmt.Stringer](rows []R) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		out[i] = strings.Join(cells, "|")
	}
	return out
}

func TestGlobalSelectDifferential(t *testing.T) {
	seeds := int64(200)
	if testing.Short() {
		seeds = 20
	}
	for seed := int64(1); seed <= seeds; seed++ {
		// A subtest per seed, so each seed's federation is cleaned up
		// when the seed ends rather than when the whole test does.
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runDifferential(t, seed) })
	}
}

func FuzzGlobalSelect(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runDifferential(t, seed)
	})
}
