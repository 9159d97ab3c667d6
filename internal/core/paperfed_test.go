package core

import (
	"testing"

	"msql/internal/ldbms"
)

// paperFederation builds the full appendix setup: five databases on five
// services, incorporated and imported through MSQL statements. Profiles:
// continental is optionally autocommit-only (for §3.3 scenarios), the
// rest provide 2PC.
func paperFederation(t testing.TB, continentalAutoCommit bool) *Federation {
	t.Helper()
	f := newFederation(t)

	contProfile := ldbms.ProfileOracleLike()
	contMode := "NOCOMMIT"
	if continentalAutoCommit {
		contProfile = ldbms.ProfileAutoCommitOnly()
		contMode = "COMMIT"
	}

	boot := func(svc string, profile ldbms.Profile, db string, ddl []string) {
		srv := serveLocal(t, f, ldbms.NewServer(svc, profile, 42))
		if err := srv.CreateDatabase(db); err != nil {
			t.Fatal(err)
		}
		sess, err := srv.OpenSession(db)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ddl {
			if _, err := sess.Exec(q); err != nil {
				t.Fatalf("bootstrap %s: %q: %v", db, q, err)
			}
		}
		if err := sess.Commit(); err != nil {
			t.Fatal(err)
		}
		sess.Close()
	}

	boot("svc_cont", contProfile, "continental", []string{
		`CREATE TABLE flights (flnu INTEGER, source CHAR(20), dep CHAR(5), destination CHAR(20), arr CHAR(5), day CHAR(10), rate FLOAT)`,
		`CREATE TABLE f838 (seatnu INTEGER, seatty CHAR(10), seatstatus CHAR(10), clientname CHAR(20))`,
		`INSERT INTO flights VALUES
			(100, 'Houston', '08:00', 'San Antonio', '09:00', 'mon', 100.0),
			(101, 'Houston', '10:00', 'Dallas', '11:00', 'tue', 80.0)`,
		`INSERT INTO f838 VALUES (1, 'window', 'FREE', NULL), (2, 'aisle', 'TAKEN', 'smith')`,
	})
	boot("svc_delta", ldbms.ProfileOracleLike(), "delta", []string{
		`CREATE TABLE flight (fnu INTEGER, source CHAR(20), dest CHAR(20), dep CHAR(5), arr CHAR(5), day CHAR(10), rate FLOAT)`,
		`CREATE TABLE fnu747 (snu INTEGER, sty CHAR(10), sstat CHAR(10), passname CHAR(20))`,
		`INSERT INTO flight VALUES (200, 'Houston', 'San Antonio', '09:00', '10:00', 'mon', 110.0)`,
		`INSERT INTO fnu747 VALUES (1, 'window', 'FREE', NULL), (2, 'aisle', 'FREE', NULL)`,
	})
	boot("svc_unit", ldbms.ProfileIngresLike(), "united", []string{
		`CREATE TABLE flight (fn INTEGER, sour CHAR(20), dest CHAR(20), depa CHAR(5), arri CHAR(5), day CHAR(10), rates FLOAT)`,
		`CREATE TABLE fn727 (sn INTEGER, st CHAR(10), sst CHAR(10), pasna CHAR(20))`,
		`INSERT INTO flight VALUES (300, 'Houston', 'San Antonio', '11:00', '12:00', 'tue', 120.0)`,
	})
	boot("svc_avis", ldbms.ProfileOracleLike(), "avis", []string{
		`CREATE TABLE cars (code INTEGER, cartype CHAR(20), rate FLOAT, carst CHAR(12), from_d CHAR(10), to_d CHAR(10), client CHAR(20))`,
		`INSERT INTO cars VALUES
			(1, 'suv', 49.5, 'available', NULL, NULL, NULL),
			(2, 'compact', 29.5, 'rented', NULL, NULL, 'smith'),
			(3, 'luxury', 99.0, 'FREE', NULL, NULL, NULL)`,
	})
	boot("svc_natl", ldbms.ProfileOracleLike(), "national", []string{
		`CREATE TABLE vehicle (vcode INTEGER, vty CHAR(20), vstat CHAR(12), from_d CHAR(10), to_d CHAR(10), client CHAR(20))`,
		`INSERT INTO vehicle VALUES
			(11, 'sedan', 'available', NULL, NULL, NULL),
			(12, 'truck', 'FREE', NULL, NULL, NULL)`,
	})

	setup := `
INCORPORATE SERVICE svc_cont CONNECTMODE CONNECT COMMITMODE ` + contMode + `;
INCORPORATE SERVICE svc_delta CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
INCORPORATE SERVICE svc_unit CONNECTMODE CONNECT COMMITMODE NOCOMMIT CREATE COMMIT DROP COMMIT;
INCORPORATE SERVICE svc_avis CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
INCORPORATE SERVICE svc_natl CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE continental FROM SERVICE svc_cont;
IMPORT DATABASE delta FROM SERVICE svc_delta;
IMPORT DATABASE united FROM SERVICE svc_unit;
IMPORT DATABASE avis FROM SERVICE svc_avis;
IMPORT DATABASE national FROM SERVICE svc_natl;
`
	if _, err := f.ExecScript(setup); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return f
}

// localRate reads a rate directly from a server, bypassing MSQL.
func localRate(t testing.TB, f *Federation, svc, db, sql string) float64 {
	t.Helper()
	sess, err := f.Server(svc).OpenSession(db)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	res, err := sess.Exec(sql)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := res.Rows[0][0].AsFloat()
	return v
}

// newFederation returns an empty federation whose loopback LAMs and
// servers close when the test ends.
func newFederation(t testing.TB) *Federation {
	f := New()
	t.Cleanup(func() { f.CloseServers() })
	return f
}

// serveLocal serves srv on a loopback LAM of f.
func serveLocal(t testing.TB, f *Federation, srv *ldbms.Server) *ldbms.Server {
	t.Helper()
	if _, err := f.AddLocalServer(srv); err != nil {
		t.Fatal(err)
	}
	return srv
}
