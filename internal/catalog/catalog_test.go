package catalog

import (
	"context"
	"errors"
	"testing"
	"testing/quick"

	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/schema"
	"msql/internal/sqlval"
)

func TestADIncorporateLookupRemove(t *testing.T) {
	ad := NewAD()
	ad.Incorporate(ServiceEntry{
		Name:           "oracle1",
		Site:           "127.0.0.1:9001",
		Connect:        true,
		AutoCommitOnly: false,
		DDLCommit:      map[string]bool{"CREATE": true},
	})
	e, err := ad.Lookup("oracle1")
	if err != nil {
		t.Fatal(err)
	}
	if !e.Connect || !e.SupportsTwoPC() || !e.DDLCommit["CREATE"] {
		t.Fatalf("entry = %+v", e)
	}
	// Clone isolation: mutating the returned entry does not affect the AD.
	e.DDLCommit["DROP"] = true
	e2, _ := ad.Lookup("oracle1")
	if e2.DDLCommit["DROP"] {
		t.Fatal("lookup returned a shared map")
	}
	if _, err := ad.Lookup("none"); !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v", err)
	}
	// Replace semantics.
	ad.Incorporate(ServiceEntry{Name: "oracle1", AutoCommitOnly: true})
	e3, _ := ad.Lookup("oracle1")
	if e3.SupportsTwoPC() {
		t.Fatal("replace did not take effect")
	}
	if err := ad.Remove("oracle1"); err != nil {
		t.Fatal(err)
	}
	if err := ad.Remove("oracle1"); !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v", err)
	}
}

func TestADNames(t *testing.T) {
	ad := NewAD()
	ad.Incorporate(ServiceEntry{Name: "zeta"})
	ad.Incorporate(ServiceEntry{Name: "alpha"})
	names := ad.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func populatedGDD(t *testing.T) *GDD {
	t.Helper()
	g := NewGDD()
	g.DefineDatabase("continental", "svc1")
	g.DefineDatabase("delta", "svc2")
	g.DefineDatabase("united", "svc3")
	put := func(db, table string, cols ...string) {
		def := TableDef{Name: table}
		for _, c := range cols {
			def.Columns = append(def.Columns, schema.Column{Name: c, Type: sqlval.KindString})
		}
		if err := g.PutTable(db, def); err != nil {
			t.Fatal(err)
		}
	}
	put("continental", "flights", "flnu", "source", "dep", "destination", "arr", "day", "rate")
	put("continental", "f838", "seatnu", "seatty", "seatstatus", "clientname")
	put("delta", "flight", "fnu", "source", "dest", "dep", "arr", "day", "rate")
	put("delta", "fnu747", "snu", "sty", "sstat", "passname")
	put("united", "flight", "fn", "sour", "dest", "depa", "arri", "day", "rates")
	put("united", "fn727", "sn", "st", "sst", "pasna")
	return g
}

func TestGDDTablesMatchingPaperPattern(t *testing.T) {
	g := populatedGDD(t)
	// The paper's UPDATE flight% resolves to flights/flight/flight.
	for db, want := range map[string]string{
		"continental": "flights",
		"delta":       "flight",
		"united":      "flight",
	} {
		got, err := g.TablesMatching(db, "flight%")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != want {
			t.Fatalf("%s: matches = %v, want [%s]", db, got, want)
		}
	}
}

func TestGDDColumnsMatchingPaperPatterns(t *testing.T) {
	g := populatedGDD(t)
	cases := []struct {
		db, table, pattern, want string
	}{
		{"continental", "flights", "rate%", "rate"},
		{"united", "flight", "rate%", "rates"},
		{"continental", "flights", "sour%", "source"},
		{"united", "flight", "sour%", "sour"},
		{"continental", "flights", "dest%", "destination"},
		{"delta", "flight", "dest%", "dest"},
	}
	for _, c := range cases {
		got, err := g.ColumnsMatching(c.db, c.table, c.pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != c.want {
			t.Fatalf("%s.%s %s: matches = %v, want [%s]", c.db, c.table, c.pattern, got, c.want)
		}
	}
}

func TestGDDMultipleMatches(t *testing.T) {
	g := populatedGDD(t)
	got, err := g.TablesMatching("continental", "f%")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("matches = %v", got)
	}
	// Exact name without % matches only itself.
	got, _ = g.TablesMatching("continental", "f838")
	if len(got) != 1 || got[0] != "f838" {
		t.Fatalf("exact = %v", got)
	}
	got, _ = g.TablesMatching("continental", "f83")
	if len(got) != 0 {
		t.Fatalf("prefix without %% matched: %v", got)
	}
}

func TestGDDErrors(t *testing.T) {
	g := populatedGDD(t)
	if _, err := g.TablesMatching("nodb", "%"); !errors.Is(err, ErrNoGlobalDB) {
		t.Fatalf("err = %v", err)
	}
	if _, err := g.Table("continental", "missing"); !errors.Is(err, ErrNoGlobalTable) {
		t.Fatalf("err = %v", err)
	}
	if err := g.DropTable("continental", "missing"); !errors.Is(err, ErrNoGlobalTable) {
		t.Fatalf("err = %v", err)
	}
	if err := g.DropDatabase("nodb"); !errors.Is(err, ErrNoGlobalDB) {
		t.Fatalf("err = %v", err)
	}
	if err := g.PutTable("nodb", TableDef{Name: "t"}); !errors.Is(err, ErrNoGlobalDB) {
		t.Fatalf("err = %v", err)
	}
}

func TestGDDDropAndServiceOf(t *testing.T) {
	g := populatedGDD(t)
	svc, err := g.ServiceOf("delta")
	if err != nil || svc != "svc2" {
		t.Fatalf("service = %s, %v", svc, err)
	}
	if err := g.DropTable("delta", "flight"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Table("delta", "flight"); err == nil {
		t.Fatal("dropped table still present")
	}
	if err := g.DropDatabase("delta"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.ServiceOf("delta"); !errors.Is(err, ErrNoGlobalDB) {
		t.Fatalf("err = %v", err)
	}
}

func TestMergeTableColumns(t *testing.T) {
	g := NewGDD()
	g.DefineDatabase("d", "svc")
	if err := g.MergeTableColumns("d", "t", false, []schema.Column{{Name: "a", Type: sqlval.KindInt}}); err != nil {
		t.Fatal(err)
	}
	if err := g.MergeTableColumns("d", "t", false, []schema.Column{{Name: "a"}, {Name: "b"}}); err != nil {
		t.Fatal(err)
	}
	def, err := g.Table("d", "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Columns) != 2 {
		t.Fatalf("cols = %+v", def.Columns)
	}
}

func newAvisService(t testing.TB) *ldbms.Server {
	srv := ldbms.NewServer("avis-svc", ldbms.ProfileOracleLike(), 3)
	if err := srv.CreateDatabase("avis"); err != nil {
		t.Fatal(err)
	}
	sess, err := srv.OpenSession("avis")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"CREATE TABLE cars (code INTEGER, cartype CHAR(20), rate FLOAT, carst CHAR(10), from_d CHAR(10), to_d CHAR(10), client CHAR(20))",
		"CREATE VIEW available AS SELECT code, cartype FROM cars WHERE carst = 'available'",
	} {
		if _, err := sess.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	sess.Commit()
	sess.Close()
	return srv
}

func TestImportDatabaseAll(t *testing.T) {
	srv := newAvisService(t)
	ad, gdd := NewAD(), NewGDD()
	ad.Incorporate(ServiceEntry{Name: "avis-svc", Connect: true})
	if err := ImportDatabase(context.Background(), gdd, ad, lam.NewLocal(srv), "avis", "avis-svc", ImportSpec{}); err != nil {
		t.Fatal(err)
	}
	def, err := gdd.Table("avis", "cars")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Columns) != 7 || def.IsView {
		t.Fatalf("cars = %+v", def)
	}
	vdef, err := gdd.Table("avis", "available")
	if err != nil {
		t.Fatal(err)
	}
	if !vdef.IsView || len(vdef.Columns) != 2 {
		t.Fatalf("view = %+v", vdef)
	}
}

func TestImportSingleTableAndColumns(t *testing.T) {
	srv := newAvisService(t)
	ad, gdd := NewAD(), NewGDD()
	ad.Incorporate(ServiceEntry{Name: "avis-svc", Connect: true})
	c := lam.NewLocal(srv)
	if err := ImportDatabase(context.Background(), gdd, ad, c, "avis", "avis-svc", ImportSpec{Table: "cars", Columns: []string{"code", "rate"}}); err != nil {
		t.Fatal(err)
	}
	def, err := gdd.Table("avis", "cars")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Columns) != 2 {
		t.Fatalf("partial import cols = %+v", def.Columns)
	}
	// Unknown column fails.
	err = ImportDatabase(context.Background(), gdd, ad, c, "avis", "avis-svc", ImportSpec{Table: "cars", Columns: []string{"bogus"}})
	if err == nil {
		t.Fatal("expected error for unknown column")
	}
	// Unincorporated service fails.
	err = ImportDatabase(context.Background(), gdd, NewAD(), c, "avis", "avis-svc", ImportSpec{})
	if !errors.Is(err, ErrNoService) {
		t.Fatalf("err = %v", err)
	}
}

func TestImportReplacesDefinitions(t *testing.T) {
	srv := newAvisService(t)
	ad, gdd := NewAD(), NewGDD()
	ad.Incorporate(ServiceEntry{Name: "avis-svc", Connect: true})
	c := lam.NewLocal(srv)
	if err := ImportDatabase(context.Background(), gdd, ad, c, "avis", "avis-svc", ImportSpec{}); err != nil {
		t.Fatal(err)
	}
	// Alter the local schema and re-import.
	sess, _ := srv.OpenSession("avis")
	sess.Exec("DROP TABLE cars")
	sess.Exec("CREATE TABLE cars (code INTEGER, newcol CHAR(5))")
	sess.Commit()
	sess.Close()
	if err := ImportDatabase(context.Background(), gdd, ad, c, "avis", "avis-svc", ImportSpec{Table: "cars"}); err != nil {
		t.Fatal(err)
	}
	def, _ := gdd.Table("avis", "cars")
	if len(def.Columns) != 2 || def.Columns[1].Name != "newcol" {
		t.Fatalf("reimported = %+v", def.Columns)
	}
}

func TestMatchName(t *testing.T) {
	cases := []struct {
		name, pattern string
		want          bool
	}{
		{"flights", "flight%", true},
		{"flight", "flight%", true},
		{"flight", "flights", false},
		{"code", "%code", true},
		{"vcode", "%code", true},
		{"codex", "%code", false},
		{"rate", "rate", true},
		{"anything", "%", true},
	}
	for _, c := range cases {
		if got := MatchName(c.name, c.pattern); got != c.want {
			t.Errorf("MatchName(%q,%q) = %v, want %v", c.name, c.pattern, got, c.want)
		}
	}
}

func TestMultidatabaseRegistry(t *testing.T) {
	g := populatedGDD(t)
	if err := g.DefineMultidatabase("airlines", []string{"continental", "delta", "united"}); err != nil {
		t.Fatal(err)
	}
	members, ok := g.Multidatabase("airlines")
	if !ok || len(members) != 3 {
		t.Fatalf("members = %v, %v", members, ok)
	}
	// Returned slice is a copy.
	members[0] = "mutated"
	again, _ := g.Multidatabase("airlines")
	if again[0] != "continental" {
		t.Fatal("Multidatabase returned shared slice")
	}
	if names := g.MultidatabaseNames(); len(names) != 1 || names[0] != "airlines" {
		t.Fatalf("names = %v", names)
	}
	// Name collision with a database.
	if err := g.DefineMultidatabase("delta", []string{"continental"}); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("err = %v", err)
	}
	// Unknown member.
	if err := g.DefineMultidatabase("m", []string{"ghost"}); !errors.Is(err, ErrNoGlobalDB) {
		t.Fatalf("err = %v", err)
	}
	// Empty members.
	if err := g.DefineMultidatabase("m", nil); err == nil {
		t.Fatal("empty members should fail")
	}
	if err := g.DropMultidatabase("airlines"); err != nil {
		t.Fatal(err)
	}
	if err := g.DropMultidatabase("airlines"); err == nil {
		t.Fatal("double drop should fail")
	}
	if _, ok := g.Multidatabase("airlines"); ok {
		t.Fatal("dropped multidatabase still visible")
	}
}

// Property: every table name matches the universal pattern and its own
// exact name; names never match a disjoint literal.
func TestQuickMatchName(t *testing.T) {
	f := func(s string) bool {
		clean := ""
		for _, r := range s {
			if r != '%' {
				clean += string(r)
			}
		}
		return MatchName(clean, "%") && MatchName(clean, clean) &&
			!MatchName(clean, clean+"x")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
