package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"msql/internal/decompose"
	"msql/internal/semvar"
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
	if fmt.Sprint(got) != "[1 100 101 102 2 3]" {
		t.Fatalf("union rows = %v, want flights 100, 101, 102 and seats 1, 2, 3", got)
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
		{"SELECT flnu FROM flights UNION SELECT seatnu FROM f838 ORDER BY seatnu DESC LIMIT 1", "[102]"},
		{"SELECT flnu AS n FROM flights UNION SELECT seatnu FROM f838 ORDER BY n", "[1 2 3 100 101 102]"},
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

// TestGlobalSelectBlocksScopeColumns: each SELECT block of a global
// query resolves an unqualified column against its own FROM tables
// first, so UNION branches over two tables that both hold flnu each
// read their own. Two tables of one block that both hold it stay
// ambiguous, and a column only the enclosing statement's table holds is
// still a correlated reference to it.
func TestGlobalSelectBlocksScopeColumns(t *testing.T) {
	f := paperFederation(t, false)
	if _, err := f.ExecScript(`USE continental
CREATE TABLE continental.hist (flnu INTEGER, rate FLOAT)
INSERT INTO continental.hist VALUES (100, 1.0), (102, 2.0)`); err != nil {
		t.Fatal(err)
	}
	rows := func(q string) ([]string, error) {
		results, err := f.ExecScript("USE continental\n" + q)
		if err != nil {
			return nil, err
		}
		var got []string
		for _, row := range results[len(results)-1].Multitable.Tables[0].Rows {
			got = append(got, row[0].String())
		}
		sort.Strings(got)
		return got, nil
	}
	got, err := rows("SELECT flnu FROM continental.flights UNION SELECT flnu FROM continental.hist")
	if err != nil || fmt.Sprint(got) != "[100 101 102]" {
		t.Fatalf("union of unqualified flnu = %v, %v; want [100 101 102]", got, err)
	}
	if _, err := rows("SELECT flnu FROM continental.flights f, continental.hist h WHERE f.rate > h.rate"); !errors.Is(err, semvar.ErrAmbiguous) {
		t.Fatalf("flnu of two tables in one block: err = %v, want semvar.ErrAmbiguous", err)
	}
	if _, err := f.ExecScript(`USE continental
UPDATE continental.flights SET day = 'sun' WHERE flights.flnu IN (SELECT h.flnu FROM continental.hist h WHERE source = 'Houston')`); err != nil {
		t.Fatal(err)
	}
	got, err = rows("SELECT f.flnu FROM continental.flights f WHERE f.day = 'sun'")
	if err != nil || fmt.Sprint(got) != "[100]" {
		t.Fatalf("flights the correlated update reached = %v, %v; want [100]", got, err)
	}
}
