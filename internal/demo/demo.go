// Package demo builds the paper's example federation: the five appendix
// databases of topology.PaperSites (continental, delta, united, avis,
// national) hosted on five simulated services with heterogeneous commit
// capabilities, incorporated and imported into a Federation. The executables, examples and
// benchmarks all start from this environment.
package demo

import (
	"fmt"
	"path/filepath"

	"msql/internal/core"
	"msql/internal/ldbms"
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

// Build constructs the demo federation. With Options.DataDir set, each
// service's store lives on disk and a database that survived an earlier
// run is adopted without re-running its bootstrap DDL.
func Build(o Options) (*core.Federation, error) {
	f := core.New()
	plan := &topology.Plan{Sites: topology.PaperSites()}
	if o.ContinentalAutoCommit {
		plan.Sites[0].Profile = ldbms.ProfileAutoCommitOnly()
	}
	for i := range plan.Sites {
		s := &plan.Sites[i]
		s.Seed = o.Seed
		if o.DataDir != "" {
			s.Dir = filepath.Join(o.DataDir, s.Service)
			s.PoolPages = o.BufferPages
		}
		srv, err := ldbms.Open(*s)
		if err != nil {
			return nil, fmt.Errorf("demo: %w", err)
		}
		if _, err := f.AddLocalServer(srv); err != nil {
			return nil, fmt.Errorf("demo: serve %s: %w", s.Service, err)
		}
	}
	if _, err := f.ExecScript(plan.Script(nil)); err != nil {
		return nil, fmt.Errorf("demo: incorporate/import: %w", err)
	}
	return f, nil
}
