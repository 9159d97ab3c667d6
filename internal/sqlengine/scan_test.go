package sqlengine_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"msql/internal/relbackend"
	"msql/internal/relstore"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
)

// TestKeptRowsSurviveBufferReuse runs the operators that keep rows past
// a cursor's Next — a hash-join build, GROUP BY and ORDER BY — over a
// table several times larger than the smallest pool (eight frames). The
// cursor decodes each page into one buffer it reuses, so a kept row that
// was not copied would read another page's values by the time the result
// is formed.
func TestKeptRowsSurviveBufferReuse(t *testing.T) {
	const rows, groups = 1500, 7
	s, err := relstore.Open(relstore.Options{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateDatabase("db"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	defer tx.Rollback()
	st := relbackend.Storage(tx)
	exec := func(q string) *sqlengine.Result {
		t.Helper()
		res, err := sqlengine.ExecuteSQL(st, "db", q)
		if err != nil {
			t.Fatalf("%.60s: %v", q, err)
		}
		return res
	}
	pad := func(id int) string { return fmt.Sprintf("pad-%05d", id*7919%rows) }
	exec(`CREATE TABLE t (id INTEGER, grp INTEGER, pad CHAR(20))`)
	exec(`CREATE TABLE s (k INTEGER)`)
	exec(`INSERT INTO s VALUES (3), (5)`)
	for i := 0; i < rows; i += 100 {
		var vals []string
		for id := i; id < i+100; id++ {
			vals = append(vals, fmt.Sprintf("(%d, %d, '%s')", id, id%groups, pad(id)))
		}
		exec("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	}
	if pages := s.Pool().Stats(); pages.Evictions == 0 {
		t.Fatalf("loading %d rows evicted nothing from an 8-frame pool", rows)
	}

	// Hash join built over the big table: every kept row must still be
	// the row its key was computed from.
	res := exec(`SELECT s.k, t.id, t.grp, t.pad FROM s, t WHERE t.grp = s.k`)
	var got []string
	for _, r := range res.Rows {
		got = append(got, fmt.Sprintf("%d/%d/%d/%s", r[0].I, r[1].I, r[2].I, r[3].S))
	}
	var want []string
	for _, k := range []int{3, 5} {
		for id := k; id < rows; id += groups {
			want = append(want, fmt.Sprintf("%d/%d/%d/%s", k, id, k, pad(id)))
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("hash join: %d rows, want %d; first got %v, want %v", len(got), len(want), head(got), head(want))
	}

	// GROUP BY collects every input row before aggregating.
	res = exec(`SELECT grp, COUNT(*), SUM(id), MIN(pad), MAX(id) FROM t GROUP BY grp ORDER BY grp`)
	if len(res.Rows) != groups {
		t.Fatalf("group by: %d groups, want %d", len(res.Rows), groups)
	}
	for g, r := range res.Rows {
		n, sum, minPad, maxID := 0, 0, "", 0
		for id := g; id < rows; id += groups {
			n, sum, maxID = n+1, sum+id, id
			if p := pad(id); minPad == "" || p < minPad {
				minPad = p
			}
		}
		wantRow := []sqlval.Value{sqlval.Int(int64(g)), sqlval.Int(int64(n)), sqlval.Int(int64(sum)), sqlval.Str(minPad), sqlval.Int(int64(maxID))}
		for i, v := range wantRow {
			if sqlval.SortCompare(r[i], v) != 0 {
				t.Fatalf("group %d: got %v, want %v", g, r, wantRow)
			}
		}
	}

	// ORDER BY sorts kept output rows after the scan has moved on.
	res = exec(`SELECT id, pad FROM t WHERE grp = 4 ORDER BY pad DESC`)
	var ids []int
	for id := 4; id < rows; id += groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return pad(ids[i]) > pad(ids[j]) })
	if len(res.Rows) != len(ids) {
		t.Fatalf("order by: %d rows, want %d", len(res.Rows), len(ids))
	}
	for i, r := range res.Rows {
		if r[0].I != int64(ids[i]) || r[1].S != pad(ids[i]) {
			t.Fatalf("order by row %d: got %v, want (%d, %s)", i, r, ids[i], pad(ids[i]))
		}
	}
}

func head(xs []string) []string {
	if len(xs) > 3 {
		return xs[:3]
	}
	return xs
}
