package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"msql/internal/wire"
)

// op is one generated script with the reply the generator expects. The
// federation only ever sees Script.
type op struct {
	Script string
	Want   expect
}

// expect is the single result a script must come back with.
type expect struct {
	Kind  string     // wire result kind: "select" or "sync"
	State string     // terminal global state of a sync
	Rows  [][]string // rows of a select, compared as a bag
}

// workload is one benchmark scenario: its federation, its data, its op
// stream and its post-run invariant. Sizes are part of the definition;
// small=true shrinks them for the smoke test only.
type workload struct {
	name      string
	why       string
	sites     []siteSpec
	clients   int // closed-loop client connections of the end-to-end run
	tables    int
	rows      int
	tracedOps int // fixed op count of the traced run; a multiple of opCycle

	// boot returns the SQL that loads site idx.
	boot func(idx int) []string
	// next generates the generator's next op.
	next func(g *generator) op
	// invariant checks the sites after a run in which ok scripts came
	// back verified with state success.
	invariant func(f *federation, ok int) error
}

// oneClientOnDisk is the client count of the workloads with disk-backed
// sites. The issue asks for two everywhere, but relstore.Store.Checkpoint
// is not safe for concurrent use at this commit (two checkpoints race on
// catalog.json.tmp and one fails its rename), so with two clients about
// one vital commit in twenty comes back "incorrect" although its data
// committed. The benchmark may not patch the system it measures, and a
// workload must not fail, so these run one closed-loop client until the
// store is fixed.
const oneClientOnDisk = 1

// opCycle is the period of every op stream in ops: after a multiple of it
// a client has left no half-finished insert/delete pair behind, and the
// per-statement counts of the traced run repeat exactly.
const opCycle = 16

// generator is one client's deterministic op stream.
type generator struct {
	w      *workload
	client int
	rng    *rand.Rand
	i      int // ops generated so far

	// comp_saga_csv: the pair state carried from an insert to its delete
	table, key int
}

func newGenerator(w *workload, seed int64, client int) *generator {
	return &generator{w: w, client: client, rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)))}
}

func (g *generator) next() op {
	o := g.w.next(g)
	g.i++
	return o
}

// clientTable picks a table whose number mod the client count is the
// client's, so two clients never contend for a table lock.
func (g *generator) clientTable() int {
	return g.w.clients*g.rng.Intn(g.w.tables/g.w.clients) + g.client
}

// verify checks a script's reply against the op's expectation.
func (o *op) verify(res []wire.ScriptResult, err error) error {
	if err != nil {
		return err
	}
	if len(res) != 1 {
		return fmt.Errorf("%d results, want 1", len(res))
	}
	r := res[0]
	if r.Failed || r.Kind != o.Want.Kind {
		return fmt.Errorf("result kind %q failed=%v (%s), want %q", r.Kind, r.Failed, r.Detail, o.Want.Kind)
	}
	if r.State != o.Want.State {
		return fmt.Errorf("state %q (%s), want %q", r.State, r.Detail, o.Want.State)
	}
	if got, want := bag(r.Rows), bag(o.Want.Rows); got != want {
		return fmt.Errorf("rows %s, want %s", got, want)
	}
	return nil
}

// bag renders rows as an order-independent string (multiset semantics).
func bag(rows [][]string) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = strings.Join(r, "|")
	}
	sort.Strings(lines)
	return strings.Join(lines, ";")
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// insertBatches renders rows as multi-row INSERT statements.
func insertBatches(table string, n int, row func(id int) string) []string {
	const batch = 500
	var out []string
	for lo := 0; lo < n; lo += batch {
		var b strings.Builder
		fmt.Fprintf(&b, "INSERT INTO %s VALUES ", table)
		for id := lo; id < min(lo+batch, n); id++ {
			if id > lo {
				b.WriteString(", ")
			}
			b.WriteString(row(id))
		}
		out = append(out, b.String())
	}
	return out
}

// ---- acct tables: read_fanout and vital_2pc ----

const acctGroups = 50

func acctBal(site, table, id int) float64 { return float64((id*7 + table*13 + site*101) % 1000) }

func acctBoot(w *workload, site int) []string {
	var out []string
	for t := 0; t < w.tables; t++ {
		name := fmt.Sprintf("acct%02d", t)
		out = append(out, fmt.Sprintf("CREATE TABLE %s (id INTEGER, grp CHAR(8), bal FLOAT, PRIMARY KEY (id))", name))
		out = append(out, insertBatches(name, w.rows, func(id int) string {
			return fmt.Sprintf("(%d, 'g%d', %s)", id, id%acctGroups, ftoa(acctBal(site, t, id)))
		})...)
	}
	return out
}

func threeSites(kind siteKind) []siteSpec {
	return []siteSpec{{"sa", "da", kind, 0}, {"sb", "db", kind, 0}, {"sc", "dc", kind, 0}}
}

func readFanout(small bool) *workload {
	w := &workload{
		name:    "read_fanout",
		why:     "3 memory sites, 8x2000 rows, 2 clients; one % point SELECT fans out to 3 subqueries: no journal, no disk, so front half, gob and LAM round trips are the whole cost",
		sites:   threeSites(siteMem),
		clients: 2,
		tables:  8, rows: 2000, tracedOps: 2000,
	}
	if small {
		w.rows, w.tracedOps = 200, 48
	}
	w.boot = func(idx int) []string { return acctBoot(w, idx) }
	w.next = func(g *generator) op {
		t, k := g.rng.Intn(w.tables), g.rng.Intn(w.rows)
		o := op{
			Script: fmt.Sprintf("USE da db dc;\nSELECT id, grp, bal FROM acct%02d%% WHERE id = %d;", t, k),
			Want:   expect{Kind: "select"},
		}
		for s, spec := range w.sites {
			o.Want.Rows = append(o.Want.Rows, []string{
				spec.db, strconv.Itoa(k), fmt.Sprintf("g%d", k%acctGroups), ftoa(acctBal(s, t, k)),
			})
		}
		return o
	}
	w.invariant = func(*federation, int) error { return nil }
	return w
}

func vital2PC(small bool) *workload {
	w := &workload{
		name:    "vital_2pc",
		why:     "3 disk sites, 8x2000 rows, 1 client; one VITAL % UPDATE + COMMIT: 2PC rounds, vote and decision fsyncs, a checkpoint on every LDBMS commit",
		sites:   threeSites(siteDisk),
		clients: oneClientOnDisk,
		tables:  8, rows: 2000, tracedOps: 320,
	}
	if small {
		w.rows, w.tracedOps = 200, 48
	}
	w.boot = func(idx int) []string { return acctBoot(w, idx) }
	w.next = func(g *generator) op {
		return op{
			Script: fmt.Sprintf("USE da VITAL db VITAL dc VITAL;\nUPDATE acct%02d%% SET bal = bal + 1 WHERE id = %d;\nCOMMIT;",
				g.clientTable(), g.rng.Intn(w.rows)),
			Want: expect{Kind: "sync", State: "success"},
		}
	}
	// SUM(bal) grew by exactly the committed count at every site.
	w.invariant = func(f *federation, ok int) error {
		for s, site := range f.sites {
			var got, want float64
			for t := 0; t < w.tables; t++ {
				rows, err := site.queryLocal(fmt.Sprintf("SELECT SUM(bal) FROM acct%02d", t))
				if err != nil {
					return err
				}
				v, err := strconv.ParseFloat(rows[0][0], 64)
				if err != nil {
					return err
				}
				got += v
				for id := 0; id < w.rows; id++ {
					want += acctBal(s, t, id)
				}
			}
			if want += float64(ok); got != want {
				return fmt.Errorf("site %s: SUM(bal) = %v, want %v after %d commits", site.spec.service, got, want, ok)
			}
		}
		return nil
	}
	return w
}

// ---- book tables: comp_saga_csv ----

// Fresh keys start above every loaded and conflict key and never repeat.
const bookFreshBase = 1_000_000

func bookName(t int) string { return fmt.Sprintf("book%02d", t) }

func compSagaCSV(small bool) *workload {
	w := &workload{
		name: "comp_saga_csv",
		why:  "1 csv autocommit site + 1 memory 2PC site, 4x2000 rows, 2 clients; VITAL insert/delete pairs with COMP, every 8th insert fails at the rel site and is compensated: the saga path and the csv executor",
		sites: []siteSpec{
			{"scsv", "dcsv", siteCSV, 0},
			{"srel", "drel", siteMem, 0},
		},
		clients: 2,
		tables:  4, rows: 2000, tracedOps: 320,
	}
	if small {
		w.rows, w.tracedOps = 200, 48
	}
	// conflictKey(t) is loaded at the rel site only: inserting it through
	// the federation fails there on the primary key.
	conflictKey := func(t int) int { return w.rows + t }
	w.boot = func(idx int) []string {
		var out []string
		for t := 0; t < w.tables; t++ {
			out = append(out, fmt.Sprintf("CREATE TABLE %s (id INTEGER, tag CHAR(8), amt FLOAT, PRIMARY KEY (id))", bookName(t)))
			out = append(out, insertBatches(bookName(t), w.rows, func(id int) string {
				return fmt.Sprintf("(%d, 'b%d', %d)", id, id%7, id%100)
			})...)
			if w.sites[idx].kind != siteCSV {
				out = append(out, fmt.Sprintf("INSERT INTO %s VALUES (%d, 'held', 0)", bookName(t), conflictKey(t)))
			}
		}
		return out
	}
	const use = "USE dcsv VITAL drel VITAL;\n"
	w.next = func(g *generator) op {
		pair := g.i / 2
		fresh := bookFreshBase*(g.client+1) + pair
		if g.i%2 == 0 {
			g.table, g.key = g.clientTable(), fresh
			want := "success"
			if pair%8 == 7 {
				g.key, want = conflictKey(g.table), "aborted"
			}
			return op{
				Script: fmt.Sprintf(use+"INSERT INTO %s%% VALUES (%d, 'n', 1)\nCOMP dcsv\nDELETE FROM %s WHERE id = %d\nCOMMIT;",
					bookName(g.table), g.key, bookName(g.table), g.key),
				Want: expect{Kind: "sync", State: want},
			}
		}
		// Undo the pair's insert. After a compensated insert nothing is
		// left to undo, so the delete names the unused fresh key and
		// succeeds on zero rows: the conflict row stays loaded.
		key := g.key
		if key == conflictKey(g.table) {
			key = fresh
		}
		return op{
			Script: fmt.Sprintf(use+"DELETE FROM %s%% WHERE id = %d\nCOMP dcsv\nINSERT INTO %s VALUES (%d, 'n', 1)\nCOMMIT;",
				bookName(g.table), key, bookName(g.table), key),
			Want: expect{Kind: "sync", State: "success"},
		}
	}
	// After compensation the csv and rel row sets are equal, but for the
	// conflict keys the rel site was loaded with.
	w.invariant = func(f *federation, _ int) error {
		for t := 0; t < w.tables; t++ {
			var ids [2]string
			for s, site := range f.sites {
				rows, err := site.queryLocal(fmt.Sprintf("SELECT id FROM %s WHERE id <> %d", bookName(t), conflictKey(t)))
				if err != nil {
					return err
				}
				ids[s] = bag(rows)
			}
			if ids[0] != ids[1] {
				return fmt.Errorf("%s: csv and rel row sets differ after compensation", bookName(t))
			}
		}
		return nil
	}
	return w
}

// ---- items tables: cross_join_ship ----

const itemGroups = 50

func itemBalX(t, id int) int { return (id*31 + t*17) % 1000 }
func itemBalY(t, id int) int { return (id*57 + t*29 + 500) % 1000 }

func crossJoinShip(small bool) *workload {
	w := &workload{
		name: "cross_join_ship",
		why:  "2 disk sites with a 64-page pool, 2x20000 rows (4-5x the pool), 1 client; a cross-site join: decompose, rows shipped as INSERT text and re-parsed, hash join, a pool that evicts",
		sites: []siteSpec{
			{"sa", "da", siteDisk, 64},
			{"sb", "db", siteDisk, 64},
		},
		clients: oneClientOnDisk,
		tables:  2, rows: 20000, tracedOps: 32,
	}
	if small {
		w.rows, w.tracedOps = 1000, 16
	}
	w.boot = func(idx int) []string {
		bal := itemBalX
		if idx == 1 {
			bal = itemBalY
		}
		var out []string
		for t := 0; t < w.tables; t++ {
			name := fmt.Sprintf("items%02d", t)
			out = append(out, fmt.Sprintf("CREATE TABLE %s (id INTEGER, grp CHAR(8), bal FLOAT, pad CHAR(24), PRIMARY KEY (id))", name))
			out = append(out, insertBatches(name, w.rows, func(id int) string {
				return fmt.Sprintf("(%d, 'g%d', %d, 'pad-%020d')", id, id%itemGroups, bal(t, id), id)
			})...)
		}
		return out
	}
	// want[t][g] is the join's exact COUNT, known from the data.
	want := make([][itemGroups]int, w.tables)
	for t := range want {
		for id := 0; id < w.rows; id++ {
			if itemBalX(t, id) <= itemBalY(t, id) {
				want[t][id%itemGroups]++
			}
		}
	}
	w.next = func(g *generator) op {
		t, grp := g.clientTable(), g.rng.Intn(itemGroups)
		return op{
			Script: fmt.Sprintf("USE da db;\nSELECT COUNT(x.id) AS n FROM da.items%02d x, db.items%02d y WHERE x.id = y.id AND x.grp = 'g%d' AND x.bal <= y.bal;",
				t, t, grp),
			Want: expect{Kind: "select", Rows: [][]string{{"da", strconv.Itoa(want[t][grp])}}},
		}
	}
	// No temp table is left at the coordinator site (da, the first FROM
	// table's) or anywhere else.
	w.invariant = func(f *federation, _ int) error {
		for _, site := range f.sites {
			names, err := site.srv.Backend().ListTables(site.spec.db)
			if err != nil {
				return err
			}
			for _, n := range names {
				if strings.HasPrefix(n, "mtmp_") {
					return fmt.Errorf("site %s: temp table %s left behind", site.spec.service, n)
				}
			}
		}
		return nil
	}
	return w
}

// allWorkloads returns the four workloads in report order.
func allWorkloads(small bool) []*workload {
	return []*workload{readFanout(small), vital2PC(small), compSagaCSV(small), crossJoinShip(small)}
}

func findWorkload(name string, small bool) *workload {
	for _, w := range allWorkloads(small) {
		if w.name == name {
			return w
		}
	}
	return nil
}
