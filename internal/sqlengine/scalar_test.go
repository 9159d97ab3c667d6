package sqlengine_test

import (
	"testing"

	"msql/internal/relbackend"
	"msql/internal/sqlengine"
)

func TestScalarFunctionEdgeCases(t *testing.T) {
	s := paperStore(t)
	// NULL propagation through scalar functions.
	res := query(t, s, "continental",
		"SELECT UPPER(clientname), LOWER(clientname), LENGTH(clientname), ABS(seatnu - 2) FROM f838 WHERE seatnu = 1")
	r := res.Rows[0]
	if !r[0].IsNull() || !r[1].IsNull() || !r[2].IsNull() {
		t.Fatalf("null propagation broken: %v", r)
	}
	if n, _ := r[3].AsInt(); n != 1 {
		t.Fatalf("abs = %v", r[3])
	}

	// ROUND single argument; SUBSTR two arguments; COALESCE all-null.
	res = query(t, s, "continental",
		"SELECT ROUND(rate / 3), SUBSTR(source, 4), COALESCE(clientname, clientname) FROM flights f, f838 s WHERE f.flnu = 100 AND s.seatnu = 1")
	r = res.Rows[0]
	if f, _ := r[0].AsFloat(); f != 33 {
		t.Fatalf("round = %v", r[0])
	}
	if r[1].S != "ston" {
		t.Fatalf("substr = %v", r[1])
	}
	if !r[2].IsNull() {
		t.Fatalf("coalesce = %v", r[2])
	}

	// SUBSTR out-of-range start; negative ABS of float.
	res = query(t, s, "continental",
		"SELECT SUBSTR(source, 99), ABS(0.0 - rate) FROM flights WHERE flnu = 100")
	if res.Rows[0][0].S != "" {
		t.Fatalf("substr oob = %q", res.Rows[0][0].S)
	}
	if f, _ := res.Rows[0][1].AsFloat(); f != 100 {
		t.Fatalf("abs float = %v", res.Rows[0][1])
	}
}

func TestScalarFunctionErrors(t *testing.T) {
	s := paperStore(t)
	tx := s.Begin()
	defer tx.Rollback()
	for _, q := range []string{
		"SELECT UPPER(source, day) FROM flights",            // arity
		"SELECT LENGTH() FROM flights",                      // arity
		"SELECT ABS(source) FROM flights",                   // type
		"SELECT ROUND(source) FROM flights",                 // type
		"SELECT SUM(rate) FROM flights WHERE SUM(rate) > 1", // aggregate in WHERE
	} {
		if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "continental", q); err == nil {
			t.Errorf("%q should error", q)
		}
	}
}

func TestConcatAndBoolRendering(t *testing.T) {
	s := paperStore(t)
	res := query(t, s, "continental",
		"SELECT CONCAT('x', NULL, 42, 1.5), 1 = 1, 1 = 2 FROM flights WHERE flnu = 100")
	r := res.Rows[0]
	if r[0].S != "x421.5" {
		t.Fatalf("concat = %q", r[0].S)
	}
	if r[1].String() != "TRUE" || r[2].String() != "FALSE" {
		t.Fatalf("bools = %v %v", r[1], r[2])
	}
}
