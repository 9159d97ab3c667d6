package core

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/schema"
	"msql/internal/topology"
)

// placementFederation incorporates two loopback-served databases: sm, with
// two rows in t(id, v), and bg, with four rows in t(id, x_id) — a column
// named exactly like sm's id shipped under alias x. wrap, when non-nil,
// decorates each site's LAM client.
func placementFederation(t *testing.T, wrap func(lam.Client) lam.Client) *Federation {
	t.Helper()
	f := newFederation(t)
	plan := &topology.Plan{Sites: []ldbms.Spec{
		{Service: "svc_sm", DB: "sm", Boot: []string{
			"CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)", "INSERT INTO t VALUES (1, 10), (2, 20)"}},
		{Service: "svc_bg", DB: "bg", Boot: []string{
			"CREATE TABLE t (id INTEGER PRIMARY KEY, x_id INTEGER)",
			"INSERT INTO t VALUES (1, 100), (2, 200), (3, 300), (4, 400)"}},
	}}
	for _, site := range plan.Sites {
		serveSite(t, f, site)
		if wrap != nil {
			c, _ := f.Resolve(site.Service)
			f.RegisterClient(site.Service, wrap(c))
		}
	}
	if _, err := f.ExecScript(plan.Script(nil)); err != nil {
		t.Fatal(err)
	}
	return f
}

const placementJoin = "SELECT x.id, y.x_id FROM sm.t x, bg.t y WHERE x.id = y.id"

// coordinatorIn renders plain EXPLAIN's coordinator line.
func coordinatorIn(t *testing.T, f *Federation, query string) string {
	t.Helper()
	res, err := f.ExecScript("USE sm bg\nEXPLAIN " + query)
	if err != nil {
		t.Fatal(err)
	}
	c := res[len(res)-1].Plan.Find("coordinator")
	if c == nil {
		t.Fatalf("no coordinator node:\n%s", res[len(res)-1].Plan.Render())
	}
	return c.Detail
}

// joinAnswer runs the query and returns its one result table's label
// and rows.
func joinAnswer(t *testing.T, f *Federation, query string) (string, []string) {
	t.Helper()
	res, err := f.ExecScript("USE sm bg\n" + query)
	if err != nil {
		t.Fatal(err)
	}
	mt := res[len(res)-1].Multitable
	if mt == nil || len(mt.Tables) != 1 {
		t.Fatalf("multitable = %+v", mt)
	}
	var rows []string
	for _, r := range mt.Tables[0].Rows {
		rows = append(rows, fmt.Sprint(r))
	}
	sort.Strings(rows)
	return mt.Tables[0].Database, rows
}

// TestGlobalSelectLabelIsFirstFromDatabase: bg holds the larger group
// and evaluates Q', but the answer is labelled by sm, the first database
// of FROM — where it was evaluated is not part of the answer.
func TestGlobalSelectLabelIsFirstFromDatabase(t *testing.T) {
	f := placementFederation(t, nil)
	if got := coordinatorIn(t, f, placementJoin); !strings.HasPrefix(got, "bg ") {
		t.Fatalf("coordinator = %q, want bg (4 rows against 2)", got)
	}
	label, rows := joinAnswer(t, f, placementJoin)
	if label != "sm" {
		t.Fatalf("answer labelled %q, want sm", label)
	}
	if want := []string{"[1 100]", "[2 200]"}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
}

// TestGlobalJoinShippedNameCollision: sm's x.id ships to bg as column
// x_id of mtmp_sm, and bg's own table has a column named x_id too. Q'
// must read each from its own table.
func TestGlobalJoinShippedNameCollision(t *testing.T) {
	f := placementFederation(t, nil)
	const q = "SELECT x.id, y.x_id FROM sm.t x, bg.t y WHERE x.id = y.id AND x.v > 15"
	if got := coordinatorIn(t, f, q); !strings.HasPrefix(got, "bg ") {
		t.Fatalf("coordinator = %q, want bg", got)
	}
	_, rows := joinAnswer(t, f, q)
	if want := []string{"[2 200]"}; !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows = %v, want %v", rows, want)
	}
}

// oldDescribe is a LAM predating row counts and keys on the describe
// reply: its tables report neither.
type oldDescribe struct{ lam.Client }

func (c oldDescribe) Describe(ctx context.Context, db, name string) (schema.Table, error) {
	d, err := c.Client.Describe(ctx, db, name)
	for i := range d.Columns {
		d.Columns[i].Key = false
	}
	d.Rows = 0
	return d, err
}

// TestOldDescribeRepliesPlanInFromOrder: with no counts in the GDD and
// equal predicates the groups tie, so the first FROM database
// coordinates, as before estimates existed — and the answer is the same.
func TestOldDescribeRepliesPlanInFromOrder(t *testing.T) {
	f := placementFederation(t, func(c lam.Client) lam.Client { return oldDescribe{c} })
	def, err := f.GDD.Table("bg", "t")
	if err != nil {
		t.Fatal(err)
	}
	if def.Rows != 0 || def.Columns[0].Key || len(def.Columns) != 2 {
		t.Fatalf("imported %+v, want both columns and no count or key", def)
	}
	if got := coordinatorIn(t, f, placementJoin); got != "sm (estimated rows sm=1000 bg=1000)" {
		t.Fatalf("coordinator = %q, want sm, first in FROM", got)
	}
	label, rows := joinAnswer(t, f, placementJoin)
	if want := []string{"[1 100]", "[2 200]"}; label != "sm" || !reflect.DeepEqual(rows, want) {
		t.Fatalf("answer %s %v, want sm %v", label, rows, want)
	}
}
