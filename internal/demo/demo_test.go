package demo

import (
	"testing"
)

func TestBuildDefault(t *testing.T) {
	f, err := Build(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// All five databases imported.
	dbs := f.GDD.DatabaseNames()
	want := []string{"avis", "continental", "delta", "national", "united"}
	if len(dbs) != len(want) {
		t.Fatalf("dbs = %v", dbs)
	}
	for i := range want {
		if dbs[i] != want[i] {
			t.Fatalf("dbs = %v", dbs)
		}
	}
	// Appendix schemas present.
	for db, table := range map[string]string{
		"continental": "flights", "delta": "flight", "united": "flight",
		"avis": "cars", "national": "vehicle",
	} {
		if _, err := f.GDD.Table(db, table); err != nil {
			t.Errorf("missing %s.%s: %v", db, table, err)
		}
	}
	// Services in the AD with correct modes.
	cont, err := f.AD.Lookup("svc_cont")
	if err != nil || !cont.SupportsTwoPC() {
		t.Fatalf("svc_cont = %+v, %v", cont, err)
	}
	natl, err := f.AD.Lookup("svc_natl")
	if err != nil || natl.Connect {
		t.Fatalf("svc_natl should be NOCONNECT: %+v, %v", natl, err)
	}
	unit, err := f.AD.Lookup("svc_unit")
	if err != nil || !unit.DDLCommit["CREATE"] {
		t.Fatalf("svc_unit DDL modes = %+v, %v", unit, err)
	}
}

func TestBuildAutoCommitContinental(t *testing.T) {
	f, err := Build(Options{Seed: 1, ContinentalAutoCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	cont, err := f.AD.Lookup("svc_cont")
	if err != nil || cont.SupportsTwoPC() {
		t.Fatalf("svc_cont should be autocommit-only: %+v, %v", cont, err)
	}
}
