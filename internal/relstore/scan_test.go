package relstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"msql/internal/schema"
	"msql/internal/sqlval"
	"msql/internal/storage"
)

// scanStore returns a store over a pool of poolPages frames holding d.t
// (id INT KEY, pad CHAR), loaded with rows whose pad is padLen bytes.
func scanStore(t *testing.T, poolPages, rows, padLen int) *Store {
	t.Helper()
	s, err := Open(Options{PoolPages: poolPages})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateDatabase("d"); err != nil {
		t.Fatal(err)
	}
	tx := s.Begin()
	if err := tx.CreateTable("d", "t", []schema.Column{
		{Name: "id", Type: sqlval.KindInt, Key: true},
		{Name: "pad", Type: sqlval.KindString},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := tx.Insert("d", "t", schema.Row{sqlval.Int(int64(i)), sqlval.Str(strings.Repeat("p", padLen))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestScanFetchesEachPageOnce scans a table many times the size of its
// pool: the cursor makes one pool fetch per heap page, not one per row,
// and still yields every row in stable-index order.
func TestScanFetchesEachPageOnce(t *testing.T) {
	const rows = 2000
	s := scanStore(t, 8, rows, 40)
	tx := s.Begin()
	defer tx.Rollback()
	tbl, err := tx.TableForRead("d", "t")
	if err != nil {
		t.Fatal(err)
	}
	pages := int64(tbl.heap.NumPages())
	if pages < 8 {
		t.Fatalf("%d rows fit in %d pages; the test wants a heap larger than the pool", rows, pages)
	}
	var pc storage.PageCounters
	it := tbl.IterCounted(&pc, nil)
	n := 0
	for {
		idx, row, ok := it.Next()
		if !ok {
			break
		}
		if idx != n || row[0].I != int64(n) {
			t.Fatalf("row %d: stable index %d, id %v", n, idx, row[0])
		}
		n++
	}
	if err := tbl.Err(); err != nil || n != rows {
		t.Fatalf("scanned %d rows (err %v), want %d", n, err, rows)
	}
	if got := pc.Hits() + pc.Misses(); got != pages {
		t.Fatalf("scan made %d pool fetches (%d hits, %d misses) over %d pages, want one per page",
			got, pc.Hits(), pc.Misses(), pages)
	}
}

// TestNestedScansHoldNoPins nests three cursors of one table over the
// smallest pool (eight frames) and checks after every Next that no frame
// is pinned: a cursor reads its page under one pin and drops it before
// returning, so nested scans can never exhaust the pool.
func TestNestedScansHoldNoPins(t *testing.T) {
	const rows = 200
	s := scanStore(t, 8, rows, 300)
	tx := s.Begin()
	defer tx.Rollback()
	tbl, err := tx.TableForRead("d", "t")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.heap.NumPages() <= 8 {
		t.Fatalf("heap has %d pages, want more than the pool's 8", tbl.heap.NumPages())
	}
	next := func(it *TableIter) bool {
		_, _, ok := it.Next()
		if p := s.Pool().Stats().Pinned; p != 0 {
			t.Fatalf("%d frames pinned between Next calls", p)
		}
		return ok
	}
	outer, mid, inner := tbl.IterCounted(nil, nil), tbl.IterCounted(nil, nil), tbl.IterCounted(nil, nil)
	for o := 0; o < 3; o++ {
		if !next(outer) {
			t.Fatalf("outer cursor ended at row %d (err %v)", o, tbl.Err())
		}
		for m := 0; m < 3; m++ {
			if !next(mid) {
				t.Fatalf("middle cursor ended at row %d (err %v)", m, tbl.Err())
			}
			inner.Reset()
			n := 0
			for next(inner) {
				n++
			}
			if n != rows {
				t.Fatalf("inner scan saw %d rows (err %v), want %d", n, tbl.Err(), rows)
			}
		}
	}
}

// heapModel is the expected contents of d.t: the table's RID table as
// rows by stable index, nil for a tombstone.
type heapModel []schema.Row

func (m heapModel) compacted() heapModel {
	var out heapModel
	for _, r := range m {
		if r != nil {
			out = append(out, r)
		}
	}
	return out
}

// checkModel compares a full TableIter scan, and a LookupKey + RowAt
// probe of every live key, with the model.
func checkModel(t *testing.T, tbl *Table, m heapModel, step string) {
	t.Helper()
	it := tbl.IterCounted(nil, nil)
	want := 0
	for {
		idx, row, ok := it.Next()
		for want < len(m) && m[want] == nil {
			want++
		}
		if !ok {
			break
		}
		if want >= len(m) {
			t.Fatalf("%s: scan yields %v at stable index %d past the model's end", step, row, idx)
		}
		if idx != want || !reflect.DeepEqual(row, m[want]) {
			t.Fatalf("%s: scan yields %v at stable index %d, model has %v at %d", step, row, idx, m[want], want)
		}
		want++
	}
	if err := tbl.Err(); err != nil {
		t.Fatalf("%s: scan fault: %v", step, err)
	}
	if want != len(m) {
		t.Fatalf("%s: scan ended before model row %d of %d", step, want, len(m))
	}
	for idx, r := range m {
		if r == nil {
			continue
		}
		got, ok := tbl.LookupKey([]sqlval.Value{r[0]})
		if !ok || got != idx {
			t.Fatalf("%s: LookupKey(%v) = %d, %v; want %d", step, r[0], got, ok, idx)
		}
		if row := tbl.RowAt(idx); !reflect.DeepEqual(row, r) {
			t.Fatalf("%s: RowAt(%d) = %v, want %v", step, idx, row, r)
		}
	}
}

// TestHeapModel drives random inserts, updates (growth moves a tuple to
// another page), deletes, commits and rollbacks through the smallest
// pool (eight frames) and checks the table against a model after every
// step.
func TestHeapModel(t *testing.T) {
	moved := 0
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { moved += runHeapModel(t, seed) })
	}
	if moved == 0 {
		t.Fatal("no update moved its tuple to another page")
	}
}

// runHeapModel runs one seed and returns how many updates relocated
// their tuple.
func runHeapModel(t *testing.T, seed int64) (moved int) {
	r := rand.New(rand.NewSource(seed))
	s := scanStore(t, 8, 0, 0)
	pad := func() sqlval.Value {
		if r.Intn(4) == 0 {
			return sqlval.Null()
		}
		return sqlval.Str(strings.Repeat(string(rune('a'+r.Intn(26))), r.Intn(1200)))
	}
	var committed heapModel
	nextKey := int64(0)
	for round := 0; round < 8; round++ {
		tx := s.Begin()
		tbl, err := tx.TableForWrite("d", "t")
		if err != nil {
			t.Fatal(err)
		}
		m := append(heapModel(nil), committed...)
		for step := 0; step < 25; step++ {
			var live []int
			for i, row := range m {
				if row != nil {
					live = append(live, i)
				}
			}
			op := r.Intn(10)
			var what string
			switch {
			case op < 4 || len(live) == 0:
				row := schema.Row{sqlval.Int(nextKey), pad()}
				nextKey++
				if err := tx.Insert("d", "t", row); err != nil {
					t.Fatal(err)
				}
				m = append(m, row)
				what = fmt.Sprintf("insert %v", row[0])
			case op < 8:
				idx := live[r.Intn(len(live))]
				row := schema.Row{m[idx][0], pad()}
				if r.Intn(4) == 0 { // a key change re-homes the index entry
					row[0] = sqlval.Int(nextKey)
					nextKey++
				}
				page := tbl.rids[idx].Page
				if err := tx.Update("d", "t", idx, row); err != nil {
					t.Fatal(err)
				}
				if tbl.rids[idx].Page != page {
					moved++
				}
				m[idx] = row
				what = fmt.Sprintf("update %d", idx)
			default:
				idx := live[r.Intn(len(live))]
				if err := tx.Delete("d", "t", idx); err != nil {
					t.Fatal(err)
				}
				m[idx] = nil
				what = fmt.Sprintf("delete %d", idx)
			}
			checkModel(t, tbl, m, fmt.Sprintf("round %d step %d (%s)", round, step, what))
		}
		if r.Intn(3) == 0 {
			if err := tx.Rollback(); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			committed = m.compacted()
		}
		rtx := s.Begin()
		tbl, err = rtx.TableForRead("d", "t")
		if err != nil {
			t.Fatal(err)
		}
		checkModel(t, tbl, committed, fmt.Sprintf("after round %d", round))
		rtx.Rollback()
	}
	return moved
}
