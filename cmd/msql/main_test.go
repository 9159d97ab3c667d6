package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msql/internal/core"
	"msql/internal/demo"
	"msql/internal/ldbms"
	"msql/internal/mtlog"
)

func TestNeedsMore(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"SELECT 1;", false},
		{"BEGIN MULTITRANSACTION\nUSE a;", true},
		{"begin multitransaction use a commit a end multitransaction;", false},
		{"USE avis;", false},
	}
	for _, c := range cases {
		if got := needsMore(c.src); got != c.want {
			t.Errorf("needsMore(%q) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestPrintResultShapes(t *testing.T) {
	fed, err := demo.Build(demo.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	check := func(script string, wantSubstrings ...string) {
		t.Helper()
		results, err := fed.ExecScript(script)
		if err != nil {
			t.Fatalf("%s: %v", script, err)
		}
		var b strings.Builder
		for _, r := range results {
			printResult(&b, r, true)
		}
		out := b.String()
		for _, want := range wantSubstrings {
			if !strings.Contains(out, want) {
				t.Errorf("output missing %q:\n%s", want, out)
			}
		}
	}
	check("USE avis\nSELECT code FROM cars WHERE carst = 'available'",
		"-- avis", "code", "generated DOL program")
	check("USE avis VITAL\nUPDATE cars SET rate = rate + 1 WHERE code = 1\nCOMMIT",
		"global state: success", "avis", "1 row(s)")
	check(`BEGIN MULTITRANSACTION
USE avis
UPDATE cars SET carst = 'TAKEN' WHERE code = 1
COMMIT avis
END MULTITRANSACTION`,
		"multitransaction committed acceptable state 0: avis")
	check("USE avis national\nSELECT code FROM cars%",
		"(skipped national")
}

func TestPrintGDDAndServices(t *testing.T) {
	fed, err := demo.Build(demo.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.ExecScript("CREATE MULTIDATABASE airlines (continental, delta, united)"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	printGDD(&b, fed)
	out := b.String()
	for _, want := range []string{
		"continental (service svc_cont)",
		"flights",
		"multidatabase airlines = continental, delta, united",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("gdd output missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	printServices(&b, fed)
	out = b.String()
	for _, want := range []string{
		"svc_cont", "NOCOMMIT (2PC)", "CREATE=COMMIT", "NOCONNECT",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("services output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSourceExitStatus(t *testing.T) {
	build := func() *core.Federation {
		t.Helper()
		fed, err := demo.Build(demo.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return fed
	}

	t.Run("success", func(t *testing.T) {
		fed := build()
		var out, errw strings.Builder
		if !runSource(fed, "USE avis VITAL\nUPDATE cars SET rate = rate + 1 WHERE code = 1\nCOMMIT", false, false, &out, &errw) {
			t.Fatalf("script should succeed; stderr: %s", errw.String())
		}
	})

	t.Run("parse error fails", func(t *testing.T) {
		fed := build()
		var out, errw strings.Builder
		if runSource(fed, "NOT A STATEMENT", false, false, &out, &errw) {
			t.Fatal("malformed script should fail")
		}
		if !strings.Contains(errw.String(), "error:") {
			t.Fatalf("stderr = %s", errw.String())
		}
	})

	t.Run("aborted vital commit fails", func(t *testing.T) {
		fed := build()
		fed.Server("svc_avis").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultPrepare})
		var out, errw strings.Builder
		if runSource(fed, "USE avis VITAL\nUPDATE cars SET rate = rate + 1 WHERE code = 1\nCOMMIT", false, false, &out, &errw) {
			t.Fatalf("aborted vital unit should fail script; output:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "global state: aborted") {
			t.Fatalf("output = %s", out.String())
		}
	})

	// An acceptable state is reached, but continental, which it
	// excludes, fails its compensation: the multitransaction is
	// Incorrect, and the script fails.
	t.Run("incorrect multitransaction fails", func(t *testing.T) {
		fed, err := demo.Build(demo.Options{Seed: 1, ContinentalAutoCommit: true})
		if err != nil {
			t.Fatal(err)
		}
		fed.Server("svc_delta").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "delta"})
		fed.Server("svc_cont").Faults().Add(ldbms.FaultRule{Op: ldbms.FaultExec, Database: "continental", Skip: 1})
		var out, errw strings.Builder
		if runSource(fed, `BEGIN MULTITRANSACTION
USE continental
UPDATE flights SET rate = rate + 1 WHERE flnu = 100
COMP continental UPDATE flights SET rate = rate - 1 WHERE flnu = 100;
USE delta
UPDATE flight SET rate = rate + 1 WHERE fnu = 200;
USE avis
UPDATE cars SET rate = rate + 1 WHERE code = 3;
COMMIT continental AND delta
  avis
END MULTITRANSACTION`, false, false, &out, &errw) {
			t.Fatalf("incorrect multitransaction should fail the script; output:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "global state: incorrect (DOLSTATUS=1)") {
			t.Fatalf("output = %s", out.String())
		}
	})

	t.Run("explicit rollback is not a failure", func(t *testing.T) {
		fed := build()
		var out, errw strings.Builder
		if !runSource(fed, "USE avis VITAL\nUPDATE cars SET rate = rate + 1 WHERE code = 1\nROLLBACK", false, false, &out, &errw) {
			t.Fatalf("requested rollback should not fail the script; output:\n%s%s", out.String(), errw.String())
		}
	})
}

func TestMultiFlag(t *testing.T) {
	var m multiFlag
	m.Set("a")
	m.Set("b")
	if m.String() != "a; b" || len(m) != 2 {
		t.Fatalf("m = %v", m)
	}
}

func TestPrintIncorporateImport(t *testing.T) {
	fed, err := demo.Build(demo.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	results, err := fed.ExecScript(`
INCORPORATE SERVICE svc_avis CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE avis FROM SERVICE svc_avis
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range results {
		printResult(&b, r, false)
	}
	if !strings.Contains(b.String(), "service incorporated") || !strings.Contains(b.String(), "database imported") {
		t.Fatalf("out = %s", b.String())
	}
}

// TestDurableStartupRollsBackOrphanVote: a participant journal holds a
// PREPARED vote the coordinator journal never recorded (the coordinator
// died between the vote and its own write). The startup path of
// msql -journal J -lam-journal D must roll the vote back, so the row it
// locked is writable again.
func TestDurableStartupRollsBackOrphanVote(t *testing.T) {
	dir := t.TempDir()
	lamDir := filepath.Join(dir, "lamj")
	if err := os.Mkdir(lamDir, 0o755); err != nil {
		t.Fatal(err)
	}
	pj, err := mtlog.OpenParticipant(filepath.Join(lamDir, "svc_delta.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pj.Append(&mtlog.Record{Type: mtlog.PPrepared, SessionID: 1, MTID: 9, DB: "delta",
		Redo: []string{"UPDATE flight SET rate = 1.0 WHERE fnu = 200"}}); err != nil {
		t.Fatal(err)
	}
	pj.Close()

	// The startup path, as realMain runs it.
	fed, err := demo.Build(demo.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer fed.CloseServers()
	if err := serveDurableLAMs(fed, lamDir); err != nil {
		t.Fatal(err)
	}
	j, err := mtlog.Open(filepath.Join(dir, "mt.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fed.SetJournal(j)
	if _, err := fed.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The vote was rolled back: its update is gone and its lock released,
	// so a unit writing the same row commits.
	res, err := fed.ExecScript("USE delta VITAL\nUPDATE flight SET rate = 111.0 WHERE fnu = 200")
	if err != nil {
		t.Fatal(err)
	}
	if st := res[len(res)-1].State; st != core.StateSuccess {
		t.Fatalf("update after startup = %s, want success (the orphan vote still holds its lock)", st)
	}
	sess, err := fed.Server("svc_delta").OpenSession("delta")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	rows, err := sess.Exec("SELECT rate FROM flight WHERE fnu = 200")
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := rows.Rows[0][0].AsFloat(); f != 111 {
		t.Fatalf("rate = %v, want 111", f)
	}
}
