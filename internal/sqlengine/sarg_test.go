package sqlengine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"msql/internal/schema"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
	"msql/internal/storage"
)

var sargCmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// sargStrings share prefixes, embed a zero byte and carry bytes >= 0x80,
// where byte order and a careless decode could part ways.
var sargStrings = []string{"", "a", "ab", "abc", "ab\x00", "b", "g3", "g30", "\x80", "\xff", "é", "A"}

// sargValue draws a value of any kind. Ints and integral floats overlap,
// so cross-kind numeric comparisons meet equal values; NaN and the
// infinities are in the float pool.
func sargValue(r *rand.Rand) sqlval.Value {
	switch r.Intn(5) {
	case 0:
		return sqlval.Null()
	case 1:
		return sqlval.Int(int64(r.Intn(7) - 3))
	case 2:
		fs := []float64{-2.5, -1, 0, 0.5, 1, 2, 3, math.Inf(1), math.Inf(-1), math.NaN()}
		return sqlval.Float(fs[r.Intn(len(fs))])
	case 3:
		return sqlval.Bool(r.Intn(2) == 0)
	default:
		return sqlval.Str(sargStrings[r.Intn(len(sargStrings))])
	}
}

// sargConjunct builds "c<col> op lit", or "lit op c<col>" when swap is
// set; with neg the literal is written negated, "-lit", as the parser
// reads "-5".
func sargConjunct(col int, op string, lit sqlval.Value, swap, neg bool) sqlparser.Expr {
	var c sqlparser.Expr = sqlparser.ColRef{Parts: []string{fmt.Sprintf("c%d", col)}}
	var l sqlparser.Expr = &sqlparser.Literal{Val: lit}
	if neg {
		l = &sqlparser.UnaryExpr{Op: "-", X: l}
	}
	if swap {
		c, l = l, c
	}
	return &sqlparser.BinaryExpr{Op: op, L: c, R: l}
}

// checkSargs holds storage.MatchSargs on tuple to the interpreter. The
// tuple is read as a row of a table of width columns c0, c1, ...; every
// conjunct must plan as a sarg. A tuple DecodeRow rejects must fail the
// match with the same error, a tuple without a sarg's column must fail
// it, and otherwise the match must be the conjunction of evalExpr's
// verdicts on the decoded row.
func checkSargs(t testing.TB, tuple []byte, width int, conjs []sqlparser.Expr) {
	t.Helper()
	src := &boundSource{qualifier: "t"}
	for i := 0; i < width; i++ {
		src.cols = append(src.cols, schema.Column{Name: fmt.Sprintf("c%d", i)})
	}
	e := &env{sources: []*boundSource{src}, current: make([]schema.Row, 1), pos: make([]int, 1)}
	var sargs []storage.Sarg
	for _, c := range conjs {
		s, ok := sargOf(e, c, 0)
		if !ok {
			t.Fatalf("%s does not plan as a sarg", sqlparser.DeparseExpr(c))
		}
		sargs = append(sargs, s)
	}
	pass, merr := storage.MatchSargs(tuple, sargs)
	row, derr := storage.DecodeRow(tuple)
	if derr != nil {
		if merr == nil || merr.Error() != derr.Error() {
			t.Fatalf("tuple %x: match error %v, decode error %v", tuple, merr, derr)
		}
		return
	}
	for _, s := range sargs {
		if s.Col >= len(row) {
			if merr == nil {
				t.Fatalf("tuple %x of %d columns: sarg %v matched without error", tuple, len(row), s)
			}
			return
		}
	}
	if merr != nil {
		t.Fatalf("tuple %x decodes, but match fails: %v", tuple, merr)
	}
	e.current[0] = row
	want := true
	for _, c := range conjs {
		v, err := evalExpr(e, c)
		if err != nil {
			t.Fatal(err)
		}
		want = want && v.Truthy()
	}
	if pass != want {
		t.Fatalf("row %v, sargs %v from %v: match %v, interpreter %v", row, sargs, conjs, pass, want)
	}
}

// sargCase is one random case: a row, one to three conjuncts on it, and
// possibly a corruption of the row's encoding.
type sargCase struct {
	tuple []byte
	width int
	conjs []sqlparser.Expr
}

func randSargCase(r *rand.Rand) sargCase {
	row := make([]sqlval.Value, 1+r.Intn(4))
	for i := range row {
		row[i] = sargValue(r)
	}
	c := sargCase{tuple: storage.EncodeRow(nil, row), width: len(row)}
	for n := 1 + r.Intn(3); n > 0; n-- {
		lit := sargValue(r)
		neg := isNumeric(lit) && r.Intn(2) == 0
		c.conjs = append(c.conjs, sargConjunct(r.Intn(len(row)), sargCmpOps[r.Intn(len(sargCmpOps))], lit, r.Intn(2) == 0, neg))
	}
	switch r.Intn(8) {
	case 0: // torn: cut short anywhere
		c.tuple = c.tuple[:r.Intn(len(c.tuple))]
	case 1: // a stray byte, tag, length or column count included
		c.tuple[r.Intn(len(c.tuple))] = byte(r.Intn(256))
	}
	return c
}

func isNumeric(v sqlval.Value) bool { return v.K == sqlval.KindInt || v.K == sqlval.KindFloat }

// TestSargsAgreeWithInterpreter draws rows of NULLs, ints, floats, bools
// and strings, and conjuncts with all six comparisons, both operand
// orders and literals of every kind, NULL and negated numbers included,
// and checks the
// storage's verdict on the encoded row against the interpreter's on the
// decoded one.
func TestSargsAgreeWithInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		c := randSargCase(r)
		checkSargs(t, c.tuple, c.width, c.conjs)
	}
}

// FuzzSarg feeds arbitrary tuple bytes and a one-conjunct predicate
// "c<col> op lit" (or "lit op c<col>") whose literal is the one value of
// the tuple encoding lit, negated when neg is set and lit is a number,
// seeded with the property test's cases and a negated -3 against ints
// and floats on either side of it.
func FuzzSarg(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		row := make([]sqlval.Value, 1+r.Intn(4))
		for j := range row {
			row[j] = sargValue(r)
		}
		lit := sargValue(r)
		f.Add(storage.EncodeRow(nil, row), uint8(r.Intn(len(row))), uint8(r.Intn(len(sargCmpOps))), r.Intn(2) == 0,
			isNumeric(lit) && r.Intn(2) == 0, storage.EncodeRow(nil, []sqlval.Value{lit}))
	}
	three := storage.EncodeRow(nil, []sqlval.Value{sqlval.Int(3)})
	for op := range sargCmpOps {
		row := []sqlval.Value{sqlval.Int(-3), sqlval.Float(-2.5), sqlval.Int(3), sqlval.Float(-3)}
		f.Add(storage.EncodeRow(nil, row), uint8(op%len(row)), uint8(op), op%2 == 0, true, three)
	}
	f.Fuzz(func(t *testing.T, tuple []byte, col, op uint8, swap, neg bool, lit []byte) {
		litRow, err := storage.DecodeRow(lit)
		if err != nil || len(litRow) != 1 || (neg && !isNumeric(litRow[0])) {
			return
		}
		width := int(col) + 1
		if row, err := storage.DecodeRow(tuple); err == nil && len(row) > width {
			width = len(row)
		}
		conj := sargConjunct(int(col), sargCmpOps[int(op)%len(sargCmpOps)], litRow[0], swap, neg)
		checkSargs(t, tuple, width, []sqlparser.Expr{conj})
	})
}

// TestSargPlanning pins which conjuncts become sargs: a column of the
// level against a literal under one of the six comparisons, in either
// order, and nothing else.
func TestSargPlanning(t *testing.T) {
	mk := func(name string, cols ...string) *boundSource {
		s := &boundSource{qualifier: name, tbl: nilTable{}}
		for _, c := range cols {
			s.cols = append(s.cols, schema.Column{Name: c})
		}
		return s
	}
	e := &env{sources: []*boundSource{mk("x", "a", "b"), mk("y", "c")}}
	for _, tc := range []struct {
		where string
		want  map[int]string // level -> sargs
	}{
		{"a = 1", map[int]string{0: "[#0 = 1]"}},
		{"'z' > b AND c <> 2.5", map[int]string{0: "[#1 < 'z']", 1: "[#0 <> 2.5]"}},
		{"x.a >= NULL AND y.c <= TRUE", map[int]string{0: "[#0 >= NULL]", 1: "[#0 <= TRUE]"}},
		// A negated number folds into the sarg's constant.
		{"a > -5 AND -2.5 <= c", map[int]string{0: "[#0 > -5]", 1: "[#0 >= -2.5]"}},
		{"b <> -0", map[int]string{0: "[#1 <> 0]"}},
		// Not "column op literal": no sarg, the filter alone decides.
		{"a = b", nil},
		{"a = c", nil},
		{"a + 1 = 2", nil},
		{"1 = 1", nil},
		{"a LIKE 'z%'", nil},
		{"a BETWEEN 1 AND 2", nil},
		{"a = 1 OR b = 2", nil},
		{"NOT a = 1", nil},
		{"a IN (1, 2)", nil},
		{"a = (SELECT 1)", nil},
		{"a = -'z'", nil},
		{"a = -NULL", nil},
		{"a = -(-1)", nil},
		{"a = -c", nil},
		{"nosuch = 1", nil},
	} {
		sel := mustParseSelect(t, "SELECT * FROM x, y WHERE "+tc.where)
		plan := planJoin(e, sel.Where)
		got := map[int]string{}
		for lvl, ss := range plan.sargs {
			got[lvl] = fmt.Sprint(ss)
		}
		if fmt.Sprint(got) != fmt.Sprint(map[int]string(tc.want)) {
			t.Errorf("WHERE %s: sargs %v, want %v", tc.where, got, tc.want)
		}
		for lvl, ss := range plan.sargs {
			if len(plan.level[lvl]) < len(ss) {
				t.Errorf("WHERE %s: level %d keeps %d filters for %d sargs", tc.where, lvl, len(plan.level[lvl]), len(ss))
			}
		}
	}
}

// nilTable stands in for a base table in planning tests; nothing scans it.
type nilTable struct{}

func (nilTable) Columns() []schema.Column                          { return nil }
func (nilTable) Scan(*storage.PageCounters, []storage.Sarg) Cursor { return nil }
func (nilTable) Err() error                                        { return nil }

func mustParseSelect(t *testing.T, q string) *sqlparser.SelectStmt {
	t.Helper()
	st, err := sqlparser.ParseStatement(q)
	if err != nil {
		t.Fatal(err)
	}
	return st.(*sqlparser.SelectStmt)
}
