package storage

import (
	"testing"

	"msql/internal/sqlval"
)

// TestMatchSargsAllocatesNothing checks the point of a sarg: a tuple is
// judged on its bytes, strings included, without building values.
func TestMatchSargsAllocatesNothing(t *testing.T) {
	tuple := EncodeRow(nil, []sqlval.Value{sqlval.Int(7), sqlval.Str("g3"), sqlval.Float(2.5), sqlval.Null(), sqlval.Bool(true)})
	sargs := []Sarg{
		{Col: 0, Op: OpGe, Val: sqlval.Float(7)},
		{Col: 1, Op: OpEq, Val: sqlval.Str("g3")},
		{Col: 2, Op: OpLt, Val: sqlval.Int(3)},
		{Col: 4, Op: OpNe, Val: sqlval.Bool(false)},
	}
	var pass bool
	allocs := testing.AllocsPerRun(100, func() {
		pass, _ = MatchSargs(tuple, sargs)
	})
	if !pass || allocs != 0 {
		t.Fatalf("pass %v with %v allocations, want a pass with none", pass, allocs)
	}
	if ok, err := MatchSargs(tuple, []Sarg{{Col: 3, Op: OpEq, Val: sqlval.Null()}}); ok || err != nil {
		t.Fatalf("NULL = NULL: %v, %v; want a rejection", ok, err)
	}
}
