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
	"msql/internal/topology"
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

// sites declares the federation's LDBSs.
func sites(o Options) []topology.SiteSpec {
	contProfile := topology.ProfileOracle
	if o.ContinentalAutoCommit {
		contProfile = topology.ProfileAutoCommit
	}
	return []topology.SiteSpec{
		{
			Service: "svc_cont", DB: "continental", Profile: contProfile,
			Boot: []string{
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
			Service: "svc_delta", DB: "delta", Profile: topology.ProfileOracle,
			Boot: []string{
				`CREATE TABLE flight (fnu INTEGER, source CHAR(20), dest CHAR(20), dep CHAR(5), arr CHAR(5), day CHAR(10), rate FLOAT)`,
				`CREATE TABLE fnu747 (snu INTEGER, sty CHAR(10), sstat CHAR(10), passname CHAR(20))`,
				`INSERT INTO flight VALUES
					(200, 'Houston', 'San Antonio', '09:00', '10:00', 'mon', 110.0),
					(201, 'Dallas', 'Houston', '15:00', '16:00', 'thu', 90.0)`,
				`INSERT INTO fnu747 VALUES (1, 'window', 'FREE', NULL), (2, 'aisle', 'FREE', NULL)`,
			},
		},
		{
			Service: "svc_unit", DB: "united", Profile: topology.ProfileIngres,
			Boot: []string{
				`CREATE TABLE flight (fn INTEGER, sour CHAR(20), dest CHAR(20), depa CHAR(5), arri CHAR(5), day CHAR(10), rates FLOAT)`,
				`CREATE TABLE fn727 (sn INTEGER, st CHAR(10), sst CHAR(10), pasna CHAR(20))`,
				`INSERT INTO flight VALUES
					(300, 'Houston', 'San Antonio', '11:00', '12:00', 'tue', 120.0),
					(301, 'Houston', 'Austin', '14:00', '15:00', 'fri', 70.0)`,
				`INSERT INTO fn727 VALUES (1, 'window', 'FREE', NULL)`,
			},
		},
		{
			Service: "svc_avis", DB: "avis", Profile: topology.ProfileOracle,
			Boot: []string{
				`CREATE TABLE cars (code INTEGER, cartype CHAR(20), rate FLOAT, carst CHAR(12), from_d CHAR(10), to_d CHAR(10), client CHAR(20))`,
				`INSERT INTO cars VALUES
					(1, 'suv', 49.5, 'available', NULL, NULL, NULL),
					(2, 'compact', 29.5, 'rented', NULL, NULL, 'smith'),
					(3, 'luxury', 99.0, 'FREE', NULL, NULL, NULL)`,
			},
		},
		{
			Service: "svc_natl", DB: "national", Profile: topology.ProfileSybase,
			Boot: []string{
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
	plan := &topology.Plan{}
	for _, s := range sites(o) {
		s.Seed = o.Seed
		if o.DataDir != "" {
			s.Dir = filepath.Join(o.DataDir, s.Service)
			s.PoolPages = o.BufferPages
		}
		srv, err := s.Build()
		if err != nil {
			return nil, fmt.Errorf("demo: %w", err)
		}
		if _, err := f.AddLocalServer(srv); err != nil {
			return nil, fmt.Errorf("demo: serve %s: %w", s.Service, err)
		}
		plan.Sites = append(plan.Sites, s)
	}
	if _, err := f.ExecScript(plan.Script(nil)); err != nil {
		return nil, fmt.Errorf("demo: incorporate/import: %w", err)
	}
	return f, nil
}
