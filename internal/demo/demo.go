// Package demo builds the paper's example federation: the five appendix
// databases (continental, delta, united, avis, national) hosted on five
// simulated services with heterogeneous commit capabilities, incorporated
// and imported into a Federation. The executables, examples and
// benchmarks all start from this environment.
package demo

import (
	"fmt"
	"path/filepath"

	"msql/internal/core"
	"msql/internal/ldbms"
	"msql/internal/relstore"
)

// Options configures the demo federation.
type Options struct {
	// ContinentalAutoCommit puts continental on an autocommit-only
	// service (the §3.3 compensation scenarios).
	ContinentalAutoCommit bool
	// Seed drives fault-injection randomness.
	Seed int64
	// DataDir persists every service's store on disk under
	// DataDir/<service>. A service whose database already exists there
	// is reopened as-is instead of being re-bootstrapped, so committed
	// data survives restarts. Empty keeps the stores in memory.
	DataDir string
	// BufferPages caps each disk-backed store's buffer pool (0 uses
	// storage.DefaultPoolPages). Ignored without DataDir.
	BufferPages int
}

// serviceSpec declares one LDBS of the federation.
type serviceSpec struct {
	Service string
	DB      string
	Profile func() ldbms.Profile
	DDL     []string
}

func specs(o Options) []serviceSpec {
	contProfile := ldbms.ProfileOracleLike
	if o.ContinentalAutoCommit {
		contProfile = ldbms.ProfileAutoCommitOnly
	}
	return []serviceSpec{
		{
			Service: "svc_cont", DB: "continental", Profile: contProfile,
			DDL: []string{
				`CREATE TABLE flights (flnu INTEGER, source CHAR(20), dep CHAR(5), destination CHAR(20), arr CHAR(5), day CHAR(10), rate FLOAT)`,
				`CREATE TABLE f838 (seatnu INTEGER, seatty CHAR(10), seatstatus CHAR(10), clientname CHAR(20))`,
				`INSERT INTO flights VALUES
					(100, 'Houston', '08:00', 'San Antonio', '09:00', 'mon', 100.0),
					(101, 'Houston', '10:00', 'Dallas', '11:00', 'tue', 80.0),
					(102, 'Austin', '12:00', 'San Antonio', '13:00', 'wed', 60.0)`,
				`INSERT INTO f838 VALUES
					(1, 'window', 'FREE', NULL),
					(2, 'aisle', 'TAKEN', 'smith'),
					(3, 'middle', 'FREE', NULL)`,
			},
		},
		{
			Service: "svc_delta", DB: "delta", Profile: ldbms.ProfileOracleLike,
			DDL: []string{
				`CREATE TABLE flight (fnu INTEGER, source CHAR(20), dest CHAR(20), dep CHAR(5), arr CHAR(5), day CHAR(10), rate FLOAT)`,
				`CREATE TABLE fnu747 (snu INTEGER, sty CHAR(10), sstat CHAR(10), passname CHAR(20))`,
				`INSERT INTO flight VALUES
					(200, 'Houston', 'San Antonio', '09:00', '10:00', 'mon', 110.0),
					(201, 'Dallas', 'Houston', '15:00', '16:00', 'thu', 90.0)`,
				`INSERT INTO fnu747 VALUES (1, 'window', 'FREE', NULL), (2, 'aisle', 'FREE', NULL)`,
			},
		},
		{
			Service: "svc_unit", DB: "united", Profile: ldbms.ProfileIngresLike,
			DDL: []string{
				`CREATE TABLE flight (fn INTEGER, sour CHAR(20), dest CHAR(20), depa CHAR(5), arri CHAR(5), day CHAR(10), rates FLOAT)`,
				`CREATE TABLE fn727 (sn INTEGER, st CHAR(10), sst CHAR(10), pasna CHAR(20))`,
				`INSERT INTO flight VALUES
					(300, 'Houston', 'San Antonio', '11:00', '12:00', 'tue', 120.0),
					(301, 'Houston', 'Austin', '14:00', '15:00', 'fri', 70.0)`,
				`INSERT INTO fn727 VALUES (1, 'window', 'FREE', NULL)`,
			},
		},
		{
			Service: "svc_avis", DB: "avis", Profile: ldbms.ProfileOracleLike,
			DDL: []string{
				`CREATE TABLE cars (code INTEGER, cartype CHAR(20), rate FLOAT, carst CHAR(12), from_d CHAR(10), to_d CHAR(10), client CHAR(20))`,
				`INSERT INTO cars VALUES
					(1, 'suv', 49.5, 'available', NULL, NULL, NULL),
					(2, 'compact', 29.5, 'rented', NULL, NULL, 'smith'),
					(3, 'luxury', 99.0, 'FREE', NULL, NULL, NULL)`,
			},
		},
		{
			Service: "svc_natl", DB: "national", Profile: ldbms.ProfileSybaseLike,
			DDL: []string{
				`CREATE TABLE vehicle (vcode INTEGER, vty CHAR(20), vstat CHAR(12), from_d CHAR(10), to_d CHAR(10), client CHAR(20))`,
				`INSERT INTO vehicle VALUES
					(11, 'sedan', 'available', NULL, NULL, NULL),
					(12, 'truck', 'FREE', NULL, NULL, NULL)`,
			},
		},
	}
}

// Build constructs the demo federation. With Options.DataDir set, each
// service's store lives on disk and a database that survived an earlier
// run is adopted without re-running its bootstrap DDL.
func Build(o Options) (*core.Federation, error) {
	f := core.New()
	for _, sp := range specs(o) {
		srv := ldbms.NewServer(sp.Service, sp.Profile(), o.Seed)
		reopened := false
		if o.DataDir != "" {
			st, err := relstore.Open(relstore.Options{
				Dir:       filepath.Join(o.DataDir, sp.Service),
				PoolPages: o.BufferPages,
			})
			if err != nil {
				return nil, fmt.Errorf("demo: open %s store: %w", sp.Service, err)
			}
			srv = ldbms.NewServerWith(sp.Service, sp.Profile(), o.Seed, st)
			if _, err := st.Database(sp.DB); err == nil {
				reopened = true
			}
		}
		if _, err := f.AddLocalServer(srv); err != nil {
			return nil, fmt.Errorf("demo: serve %s: %w", sp.Service, err)
		}
		if reopened {
			continue
		}
		if err := srv.CreateDatabase(sp.DB); err != nil {
			return nil, err
		}
		sess, err := srv.OpenSession(sp.DB)
		if err != nil {
			return nil, err
		}
		for _, q := range sp.DDL {
			if _, err := sess.Exec(q); err != nil {
				return nil, fmt.Errorf("demo: bootstrap %s: %q: %w", sp.DB, q, err)
			}
		}
		if err := sess.Commit(); err != nil {
			return nil, err
		}
		sess.Close()
	}

	contMode := "NOCOMMIT"
	if o.ContinentalAutoCommit {
		contMode = "COMMIT"
	}
	setup := `
INCORPORATE SERVICE svc_cont CONNECTMODE CONNECT COMMITMODE ` + contMode + `;
INCORPORATE SERVICE svc_delta CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
INCORPORATE SERVICE svc_unit CONNECTMODE CONNECT COMMITMODE NOCOMMIT CREATE COMMIT DROP COMMIT;
INCORPORATE SERVICE svc_avis CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
INCORPORATE SERVICE svc_natl CONNECTMODE NOCONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE continental FROM SERVICE svc_cont;
IMPORT DATABASE delta FROM SERVICE svc_delta;
IMPORT DATABASE united FROM SERVICE svc_unit;
IMPORT DATABASE avis FROM SERVICE svc_avis;
IMPORT DATABASE national FROM SERVICE svc_natl;
`
	if _, err := f.ExecScript(setup); err != nil {
		return nil, fmt.Errorf("demo: incorporate/import: %w", err)
	}
	return f, nil
}
