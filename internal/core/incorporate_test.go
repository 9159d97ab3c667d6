package core

import (
	"errors"
	"fmt"
	"testing"

	"msql/internal/ldbms"
)

// TestIncorporateRejectsNoCommitOnAutocommitOnlyService is the
// presumed-abort answering fix: a site without a prepare interface must
// refuse the COMMITMODE NOCOMMIT role at INCORPORATE time, because a
// prepared session parked there could never be resolved.
func TestIncorporateRejectsNoCommitOnAutocommitOnlyService(t *testing.T) {
	f := newFederation(t)
	serveSite(t, f, ldbms.Spec{Service: "svc_auto", Profile: ldbms.ProfileAutoCommitOnly()})

	_, err := f.ExecScript("INCORPORATE SERVICE svc_auto CONNECTMODE CONNECT COMMITMODE NOCOMMIT")
	if !errors.Is(err, ErrCapability) {
		t.Fatalf("err = %v, want ErrCapability", err)
	}
	if !errors.Is(err, ldbms.ErrNoTwoPC) {
		t.Fatalf("err = %v, want to wrap ErrNoTwoPC", err)
	}
	// The rejected declaration must not land in the AD.
	if _, err := f.AD.Lookup("svc_auto"); err == nil {
		t.Fatal("rejected INCORPORATE left an AD entry")
	}
	// Declared honestly it is accepted.
	if _, err := f.ExecScript("INCORPORATE SERVICE svc_auto CONNECTMODE CONNECT COMMITMODE COMMIT"); err != nil {
		t.Fatal(err)
	}
}

// TestIncorporateRejectsNoCommitOverWire validates against the profile
// fetched from a remote LAM — for a CSV-backed site, the other new
// backend.
func TestIncorporateRejectsNoCommitOverWire(t *testing.T) {
	ts := serveLAM(t, openSite(t, ldbms.Spec{Service: "svc_csv", Profile: ldbms.ProfileAutoCommitOnly(),
		Backend: ldbms.BackendCSV, DB: "d"}))

	f := New()
	_, err := f.ExecScript(fmt.Sprintf(
		"INCORPORATE SERVICE svc_csv SITE '%s' CONNECTMODE CONNECT COMMITMODE NOCOMMIT", ts.Addr()))
	if !errors.Is(err, ErrCapability) {
		t.Fatalf("err = %v, want ErrCapability", err)
	}
	// The honest declaration works and IMPORT sees the CSV tables.
	if _, err := f.ExecScript(fmt.Sprintf(
		"INCORPORATE SERVICE svc_csv SITE '%s' CONNECTMODE CONNECT COMMITMODE COMMIT;\nIMPORT DATABASE d FROM SERVICE svc_csv;",
		ts.Addr())); err != nil {
		t.Fatal(err)
	}
}

// TestIncorporateAdoptsProfileAutocommitClasses: the live profile's
// autocommit classes (the Ingres DDL quirk) are merged into the AD
// entry even when the declaration omitted them, so the translator
// demands compensation for VITAL DDL instead of trusting a prepared
// state that cannot exist.
func TestIncorporateAdoptsProfileAutocommitClasses(t *testing.T) {
	f := newFederation(t)
	serveSite(t, f, ldbms.Spec{Service: "svc_ing", Profile: ldbms.ProfileIngresLike()})
	if _, err := f.ExecScript("INCORPORATE SERVICE svc_ing CONNECTMODE CONNECT COMMITMODE NOCOMMIT"); err != nil {
		t.Fatal(err)
	}
	e, err := f.AD.Lookup("svc_ing")
	if err != nil {
		t.Fatal(err)
	}
	if !e.DDLCommit["CREATE"] || !e.DDLCommit["DROP"] {
		t.Fatalf("DDLCommit = %v, want CREATE and DROP adopted from the profile", e.DDLCommit)
	}
}

// TestIncorporateUnreachableSiteDeferred: with no client registered or
// dialable the declaration is recorded on trust, preserving the
// incorporate-before-register bootstrap order.
func TestIncorporateUnreachableSiteDeferred(t *testing.T) {
	f := New()
	if _, err := f.ExecScript("INCORPORATE SERVICE svc_later CONNECTMODE CONNECT COMMITMODE NOCOMMIT"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AD.Lookup("svc_later"); err != nil {
		t.Fatal("deferred declaration missing from AD")
	}
}
