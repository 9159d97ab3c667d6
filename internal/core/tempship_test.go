package core

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/schema"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
)

// shipJoin is a cross-site join whose plan ships united's matching rows
// into a temporary table mtmp_united at continental, runs Q' there and
// drops the table.
const shipJoin = "USE continental united\nSELECT c.flnu, u.fn FROM continental.flights c, united.flight u WHERE c.rate < u.rates"

// TestConcurrentShipsToOneCoordinator runs shipJoin from four sessions
// at once, 50 times each, over both 2PC profiles. Every run ships into a
// table named mtmp_united at continental. As a base table that name was
// shared: an Ingres-like site autocommitted its CREATE, so the other
// sessions saw the table and failed with "table already exists", and an
// Oracle-like site serialized the runs on the table's X lock. As a
// session-private temporary table it is neither: every run answers, with
// every joined row.
func TestConcurrentShipsToOneCoordinator(t *testing.T) {
	for _, profile := range []ldbms.Profile{ldbms.ProfileOracleLike(), ldbms.ProfileIngresLike()} {
		t.Run(profile.Name, func(t *testing.T) {
			fed, _ := tcpFederationWith(t, profile)
			const clients, runs = 4, 50
			var (
				wg       sync.WaitGroup
				mu       sync.Mutex
				failures []string
			)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					sess := fed.NewSession("")
					for i := 0; i < runs; i++ {
						if err := checkShipJoin(sess); err != nil {
							mu.Lock()
							failures = append(failures, err.Error())
							mu.Unlock()
						}
					}
				}()
			}
			wg.Wait()
			if len(failures) > 0 {
				t.Fatalf("%d of %d statements failed; first: %s", len(failures), clients*runs, failures[0])
			}
		})
	}
}

// checkShipJoin runs shipJoin in sess and checks its four rows:
// continental's rates 100, 80 and 60 under united's 120, and 60 under
// its 70 too.
func checkShipJoin(sess *Session) error {
	results, err := sess.ExecScript(shipJoin)
	if err != nil {
		return err
	}
	mt := results[len(results)-1].Multitable
	if mt == nil || len(mt.Tables) != 1 {
		return fmt.Errorf("multitable %+v", mt)
	}
	var got []string
	for _, row := range mt.Tables[0].Rows {
		got = append(got, fmt.Sprint(row))
	}
	sort.Strings(got)
	if want := "[100 300] [101 300] [102 300] [102 301]"; strings.Join(got, " ") != want {
		return fmt.Errorf("rows %v, want %s", got, want)
	}
	return nil
}

// wrapService re-registers the client the federation reaches service
// through as wrap of it, under the service name and its site address.
func wrapService(t *testing.T, f *Federation, service string, wrap func(lam.Client) lam.Client) {
	t.Helper()
	entry, err := f.AD.Lookup(service)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{service, entry.Site} {
		if key == "" {
			continue
		}
		c, err := f.Resolve(key)
		if err != nil {
			t.Fatal(err)
		}
		f.RegisterClient(key, wrap(c))
	}
}

// shipWatch is a coordinator client that checks a ship as it happens:
// after each load it lists the database's tables, as IMPORT would, and
// after each DROP of a shipped table it asks the dropping session for
// the table again.
type shipWatch struct {
	lam.Client
	mu     sync.Mutex
	loads  int
	drops  int
	listed []string // mtmp_ names ListTables showed during a ship
	seen   []error  // non-nil: the owning session still saw a dropped table
}

func (w *shipWatch) Open(ctx context.Context, db string) (lam.Session, error) {
	s, err := w.Client.Open(ctx, db)
	if err != nil {
		return nil, err
	}
	return &shipWatchSession{Session: s, w: w}, nil
}

type shipWatchSession struct {
	lam.Session
	w *shipWatch
}

func (s *shipWatchSession) Load(ctx context.Context, table string, rows [][]sqlval.Value) (int, error) {
	n, err := s.Session.Load(ctx, table, rows)
	if err != nil {
		return n, err
	}
	names, lerr := s.w.Client.ListTables(ctx, s.Database())
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	s.w.loads++
	if lerr != nil {
		s.w.listed = append(s.w.listed, lerr.Error())
	}
	for _, name := range names {
		if strings.HasPrefix(name, "mtmp_") {
			s.w.listed = append(s.w.listed, name)
		}
	}
	return n, nil
}

func (s *shipWatchSession) Exec(ctx context.Context, sql string) (*sqlengine.Result, error) {
	table, ok := strings.CutPrefix(sql, "DROP TABLE mtmp_")
	if !ok {
		return s.Session.Exec(ctx, sql)
	}
	// The drop ends the transaction; send the ending with the Commit or
	// Prepare call that follows instead, so the probe runs before it.
	// The probe's error aborts the transaction: only for read-only tasks.
	ctx = lam.WithEnding(ctx, 0)
	res, err := s.Session.Exec(ctx, sql)
	if err != nil {
		return res, err
	}
	_, perr := s.Session.Exec(ctx, "SELECT * FROM mtmp_"+table)
	s.w.mu.Lock()
	defer s.w.mu.Unlock()
	s.w.drops++
	if !errors.Is(perr, schema.ErrNoTable) {
		s.w.seen = append(s.w.seen, fmt.Errorf("mtmp_%s after its DROP: %v", table, perr))
	}
	return res, nil
}

// TestShipLeavesDiskSiteUntouched ships into a disk-backed relstore
// site: the temporary table creates no file in its data directory, and
// the catalog is not rewritten, byte for byte.
func TestShipLeavesDiskSiteUntouched(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "svc_cont")
	f := localFederation(t,
		ldbms.Spec{Service: "svc_cont", Dir: dir, PoolPages: 8, DB: "continental", Boot: []string{
			"CREATE TABLE flights (flnu INTEGER, rate FLOAT)",
			"INSERT INTO flights VALUES (100, 100.0), (101, 80.0), (102, 150.0)"}},
		ldbms.Spec{Service: "svc_unit", DB: "united", Boot: []string{
			"CREATE TABLE flight (fn INTEGER, rates FLOAT)", "INSERT INTO flight VALUES (300, 120.0)"}})
	snapshot := func() (files []string, catalog []byte) {
		t.Helper()
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		catalog, err = os.ReadFile(filepath.Join(dir, "catalog.json"))
		if err != nil {
			t.Fatal(err)
		}
		return files, catalog
	}
	files, catalog := snapshot()
	for i := 0; i < 3; i++ {
		results, err := f.ExecScript(shipJoin)
		if err != nil {
			t.Fatal(err)
		}
		if mt := results[len(results)-1].Multitable; mt == nil || len(mt.Tables) != 1 || len(mt.Tables[0].Rows) != 2 {
			t.Fatalf("join result %+v", mt)
		}
	}
	if loads := f.Server("svc_cont").Stats().Loads; loads != 3 {
		t.Fatalf("%d loads at continental, want one ship per join", loads)
	}
	after, afterCatalog := snapshot()
	if fmt.Sprint(after) != fmt.Sprint(files) {
		t.Fatalf("data directory\n %v\nafter three ships\n %v", files, after)
	}
	if string(afterCatalog) != string(catalog) {
		t.Fatalf("catalog.json rewritten by a ship:\n%s\nwas\n%s", afterCatalog, catalog)
	}
}

// TestTemporaryTableRefusedAtMultidatabaseLevel: a temporary table lives
// in one LAM session, which ends with the plan that opened it, so the
// federation refuses to create one for a user rather than record a
// table in the GDD that no later statement could read.
func TestTemporaryTableRefusedAtMultidatabaseLevel(t *testing.T) {
	fed, _ := tcpFederation(t)
	_, err := fed.ExecScript("USE continental\nCREATE TEMPORARY TABLE scratch (a INTEGER)")
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	if _, err := fed.GDD.Table("continental", "scratch"); err == nil {
		t.Fatal("the GDD records the refused temporary table")
	}
}
