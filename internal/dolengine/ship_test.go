package dolengine

import (
	"context"
	"reflect"
	"testing"

	"msql/internal/dol"
	"msql/internal/ldbms"
	"msql/internal/sqlval"
)

// tcpPair serves a source site (database src, table items loaded with
// rows) and an empty destination site (database dst) over TCP LAMs and
// returns a directory of dialled clients plus the destination server.
func tcpPair(t *testing.T, rows [][]sqlval.Value) (MapDirectory, *ldbms.Server) {
	t.Helper()
	dir := MapDirectory{}
	var dst *ldbms.Server
	for _, db := range []string{"src", "dst"} {
		srv := openSite(t, ldbms.Spec{Service: "svc_" + db, DB: db})
		if db == "src" {
			sess, err := srv.OpenSession(db)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Exec("CREATE TABLE items (id INTEGER, s CHAR(20), f FLOAT, b BOOLEAN)"); err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Load("items", rows); err != nil {
				t.Fatal(err)
			}
			if err := sess.Commit(); err != nil {
				t.Fatal(err)
			}
			sess.Close()
		} else {
			dst = srv
		}
		dir["site_"+db] = serveLAM(t, srv)
	}
	return dir, dst
}

// shipProgram ships the items matching where to the destination and reads
// the temp table back there.
func shipProgram(where string) string {
	return `
DOLBEGIN
OPEN src AT site_src AS s;
OPEN dst AT site_dst AS d;
TASK T1 FOR s
{ SELECT id, s, f, b FROM items WHERE ` + where + ` }
ENDTASK;
SHIP T1 TO d TABLE mtmp_src (id INTEGER, s CHAR(20), f FLOAT, b BOOLEAN);
TASK T2 AFTER T1 FOR d
{ SELECT id, s, f, b FROM mtmp_src ORDER BY id; DROP TABLE mtmp_src }
ENDTASK;
CLOSE s d;
DOLEND
`
}

// runShip runs shipProgram and returns the rows T2 read at the
// destination together with the record of the one SHIP.
func runShip(t *testing.T, dir Directory, where string) ([][]sqlval.Value, ShipInfo) {
	t.Helper()
	prog, err := dol.Parse(shipProgram(where))
	if err != nil {
		t.Fatal(err)
	}
	out, err := New(dir).Run(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if out.TaskStatus("T2") != dol.StatusCommitted {
		t.Fatalf("T2 = %s (%v)", out.TaskStatus("T2"), out.Tasks["T2"].Err)
	}
	if len(out.Ships) != 1 {
		t.Fatalf("ships recorded = %v", out.Ships)
	}
	for _, info := range out.Ships {
		return out.Tasks["T2"].Result.Rows, info
	}
	panic("unreachable")
}

// TestShipValueFidelityOverTCP: what the source produced is what the
// destination's temp table holds, value for value, for the values SQL
// text used to mangle or refuse — quotes, newlines, non-ASCII, NULLs,
// booleans, and floats that print with an exponent.
func TestShipValueFidelityOverTCP(t *testing.T) {
	I, S, F, B, N := sqlval.Int, sqlval.Str, sqlval.Float, sqlval.Bool, sqlval.Null()
	rows := [][]sqlval.Value{
		{I(1), S("O'Hare"), F(1e-5), B(true)},
		{I(2), S("two\nlines"), F(1e21), B(false)},
		{I(3), S("Zürich ✈ 東京"), F(5e-324), N},
		{I(4), S("'; DROP TABLE x"), F(1.7976931348623157e308), B(true)},
		{I(5), S(""), F(-2.5e-7), B(false)},
		{I(6), N, N, N},
		{I(7), S("100"), F(100), B(true)}, // prints as 100: text made it an INT literal
	}
	dir, dst := tcpPair(t, rows)
	shipped := mShipRows.With("svc_dst").Value()
	batches := mShipBatches.With("svc_dst").Value()

	got, info := runShip(t, dir, "id > 0")
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("destination holds\n %v\nsource produced\n %v", got, rows)
	}
	if info.Rows != len(rows) || info.Batches != 1 || info.Elapsed <= 0 {
		t.Fatalf("ship record = %+v, want %d rows in 1 batch", info, len(rows))
	}
	if st := dst.Stats(); st.Loads != 1 || st.LoadedRows != int64(len(rows)) {
		t.Fatalf("destination stats = %+v, want one load of %d rows", st, len(rows))
	}
	if got := mShipRows.With("svc_dst").Value() - shipped; got != int64(len(rows)) {
		t.Errorf("msql_ship_rows_total{svc_dst} grew by %d, want %d", got, len(rows))
	}
	if got := mShipBatches.With("svc_dst").Value() - batches; got != 1 {
		t.Errorf("msql_ship_batches_total{svc_dst} grew by %d, want 1", got)
	}
}

// TestShipEmptyResult: an empty source result still creates the temp
// table (the final query names it) and sends no Load at all.
func TestShipEmptyResult(t *testing.T) {
	dir, dst := tcpPair(t, [][]sqlval.Value{{sqlval.Int(1), sqlval.Null(), sqlval.Null(), sqlval.Null()}})
	got, info := runShip(t, dir, "id < 0")
	if len(got) != 0 || info.Rows != 0 || info.Batches != 0 {
		t.Fatalf("rows %v, ship record %+v; want nothing shipped", got, info)
	}
	if st := dst.Stats(); st.Loads != 0 {
		t.Fatalf("destination saw %d loads for an empty result", st.Loads)
	}
}

// TestShipBatches: a result larger than one batch goes over in full
// batches plus a final partial one, every row exactly once.
func TestShipBatches(t *testing.T) {
	const n = 2*shipBatchRows + 5
	rows := make([][]sqlval.Value, n)
	for i := range rows {
		rows[i] = []sqlval.Value{sqlval.Int(int64(i + 1)), sqlval.Str("x"), sqlval.Float(float64(i)), sqlval.Bool(i%2 == 0)}
	}
	dir, dst := tcpPair(t, rows)
	got, info := runShip(t, dir, "id > 0")
	if !reflect.DeepEqual(got, rows) {
		t.Fatalf("destination holds %d rows (first %v, last %v), want the source's %d", len(got), got[0], got[len(got)-1], n)
	}
	if info.Rows != n || info.Batches != 3 {
		t.Fatalf("ship record = %+v, want %d rows in 3 batches", info, n)
	}
	if st := dst.Stats(); st.Loads != 3 || st.LoadedRows != n {
		t.Fatalf("destination stats = %+v, want 3 loads of %d rows in all", st, n)
	}
}
