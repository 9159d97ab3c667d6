package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"msql/internal/decompose"
)

// TestGlobalUnionOneDatabase: a global UNION whose branches all read
// continental runs whole there, each branch's columns qualified by its
// own FROM alias, and no other site executes anything.
func TestGlobalUnionOneDatabase(t *testing.T) {
	f := paperFederation(t, false)
	unitedBefore := f.Server("svc_unit").Stats().Execs
	results, err := f.ExecScript(`
USE continental united
SELECT c.flnu FROM continental.flights c UNION SELECT c2.seatnu FROM continental.f838 c2
`)
	if err != nil {
		t.Fatal(err)
	}
	sel := results[len(results)-1]
	if sel.Multitable == nil || len(sel.Multitable.Tables) != 1 {
		t.Fatalf("multitable = %+v", sel.Multitable)
	}
	var got []string
	for _, row := range sel.Multitable.Tables[0].Rows {
		got = append(got, row[0].String())
	}
	sort.Strings(got)
	if fmt.Sprint(got) != "[1 100 101 2]" {
		t.Fatalf("union rows = %v, want flights 100, 101 and seats 1, 2", got)
	}
	if n := f.Server("svc_unit").Stats().Execs - unitedBefore; n != 0 {
		t.Fatalf("united executed %d statements for a continental-only union", n)
	}
}

// TestGlobalUnionAcrossDatabasesRefused: a UNION whose branches read
// continental and united cannot be decomposed (only the first branch's
// FROM is grouped), so it fails at plan time, as a SELECT or as the
// source of an INSERT, and no site executes anything.
func TestGlobalUnionAcrossDatabasesRefused(t *testing.T) {
	f := paperFederation(t, false)
	services := []string{"svc_cont", "svc_delta", "svc_unit", "svc_avis", "svc_natl"}
	execs := func() (n int64) {
		for _, svc := range services {
			n += f.Server(svc).Stats().Execs
		}
		return n
	}
	for _, q := range []string{
		"SELECT c.flnu FROM continental.flights c UNION SELECT u.fn FROM united.flight u",
		"INSERT INTO avis.cars (code) SELECT c.flnu FROM continental.flights c UNION SELECT u.fn FROM united.flight u",
	} {
		before := execs()
		_, err := f.ExecScript("USE continental united avis\n" + q)
		if !errors.Is(err, decompose.ErrUnsupported) {
			t.Fatalf("%s: err = %v, want decompose.ErrUnsupported", q, err)
		}
		if n := execs() - before; n != 0 {
			t.Fatalf("%s: sites executed %d statements for a refused query", q, n)
		}
	}
}

// TestUnionOrderByBindsToUnion: at continental, a trailing ORDER BY and
// LIMIT order and limit the whole union, as standard SQL does — one row
// for the LIMIT 1, every row sorted by the first branch's alias n.
func TestUnionOrderByBindsToUnion(t *testing.T) {
	f := paperFederation(t, false)
	for _, tc := range []struct{ q, want string }{
		{"SELECT flnu FROM flights UNION SELECT seatnu FROM f838 ORDER BY seatnu DESC LIMIT 1", "[101]"},
		{"SELECT flnu AS n FROM flights UNION SELECT seatnu FROM f838 ORDER BY n", "[1 2 100 101]"},
	} {
		results, err := f.ExecScript("USE continental\n" + tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		sel := results[len(results)-1]
		if sel.Multitable == nil || len(sel.Multitable.Tables) != 1 {
			t.Fatalf("%s: multitable = %+v", tc.q, sel.Multitable)
		}
		var got []string
		for _, row := range sel.Multitable.Tables[0].Rows {
			got = append(got, row[0].String())
		}
		if fmt.Sprint(got) != tc.want {
			t.Fatalf("%s: rows = %v, want %s", tc.q, got, tc.want)
		}
	}
}
