// Package catalog implements the two multidatabase-level dictionaries of
// the paper's schema architecture (Figure 2): the Auxiliary Directory
// (AD), which records the services of the federation together with their
// access and commit capabilities, and the Global Data Dictionary (GDD),
// which records the names, types and widths of the database objects
// visible at the multidatabase level. The GDD is what multiple identifier
// substitution consults to expand '%' patterns.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"msql/internal/schema"
	"msql/internal/sqlval"
)

// Catalog errors.
var (
	ErrNoService     = errors.New("catalog: service not incorporated")
	ErrNoGlobalDB    = errors.New("catalog: database not known to the federation")
	ErrNoGlobalTable = errors.New("catalog: table not known to the federation")
)

// ServiceEntry is one Auxiliary Directory record, the product of an
// INCORPORATE SERVICE statement.
type ServiceEntry struct {
	// Name of the service inside the federation.
	Name string
	// Site is the service address; empty for a service reached by the
	// name its client is registered under.
	Site string
	// Connect is the CONNECTMODE: true (CONNECT) when the LDBMS supports
	// multiple databases.
	Connect bool
	// AutoCommitOnly is the COMMITMODE: true (COMMIT) when the LDBMS
	// autocommits everything; false (NOCOMMIT) when it offers 2PC.
	AutoCommitOnly bool
	// DDLCommit records, per DDL class, whether the class autocommits
	// (COMMIT) even on a 2PC service.
	DDLCommit map[string]bool
}

// Clone deep-copies the entry.
func (e *ServiceEntry) Clone() *ServiceEntry {
	c := *e
	c.DDLCommit = make(map[string]bool, len(e.DDLCommit))
	for k, v := range e.DDLCommit {
		c.DDLCommit[k] = v
	}
	return &c
}

// SupportsTwoPC reports whether the service provides a 2PC interface.
func (e *ServiceEntry) SupportsTwoPC() bool { return !e.AutoCommitOnly }

// AD is the Auxiliary Directory.
type AD struct {
	mu       sync.RWMutex
	services map[string]*ServiceEntry
}

// NewAD returns an empty directory.
func NewAD() *AD { return &AD{services: make(map[string]*ServiceEntry)} }

// Incorporate inserts or replaces a service record.
func (a *AD) Incorporate(e ServiceEntry) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e.DDLCommit == nil {
		e.DDLCommit = make(map[string]bool)
	}
	a.services[e.Name] = e.Clone()
}

// Lookup returns the record of a service.
func (a *AD) Lookup(name string) (*ServiceEntry, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	e, ok := a.services[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoService, name)
	}
	return e.Clone(), nil
}

// Remove deletes a service record.
func (a *AD) Remove(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.services[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoService, name)
	}
	delete(a.services, name)
	return nil
}

// Names returns sorted service names.
func (a *AD) Names() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.services))
	for n := range a.services {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TableDef is the GDD record of one table or view. Rows is the table's
// live row count when it was last imported, 0 when unknown (views, and
// services that do not report one); the decomposer sizes partial results
// from it.
type TableDef struct {
	Name    string
	IsView  bool
	Columns []schema.Column
	Rows    int64
}

// Clone deep-copies the definition.
func (t *TableDef) Clone() *TableDef {
	c := *t
	c.Columns = append([]schema.Column(nil), t.Columns...)
	return &c
}

// ColumnNames lists the column names.
func (t *TableDef) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// HasColumn reports whether the table has the named column.
func (t *TableDef) HasColumn(name string) bool {
	for _, c := range t.Columns {
		if c.Name == name {
			return true
		}
	}
	return false
}

// DatabaseDef is the GDD record of one database.
type DatabaseDef struct {
	Name    string
	Service string
	Tables  map[string]*TableDef
}

// GDD is the Global Data Dictionary.
type GDD struct {
	mu       sync.RWMutex
	dbs      map[string]*DatabaseDef
	multidbs map[string][]string
}

// NewGDD returns an empty dictionary.
func NewGDD() *GDD {
	return &GDD{
		dbs:      make(map[string]*DatabaseDef),
		multidbs: make(map[string][]string),
	}
}

// ErrNameTaken reports a multidatabase/database name collision.
var ErrNameTaken = errors.New("catalog: name already in use")

// DefineMultidatabase registers a named multidatabase (virtual database):
// a set of member databases usable in USE scopes. Members must be known
// databases; the name must not collide with a database.
func (g *GDD) DefineMultidatabase(name string, members []string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.dbs[name]; ok {
		return fmt.Errorf("%w: %s is a database", ErrNameTaken, name)
	}
	if len(members) == 0 {
		return fmt.Errorf("catalog: multidatabase %s needs at least one member", name)
	}
	for _, m := range members {
		if _, ok := g.dbs[m]; !ok {
			return fmt.Errorf("%w: %s (member of %s)", ErrNoGlobalDB, m, name)
		}
	}
	g.multidbs[name] = append([]string(nil), members...)
	return nil
}

// DropMultidatabase removes a multidatabase definition.
func (g *GDD) DropMultidatabase(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.multidbs[name]; !ok {
		return fmt.Errorf("catalog: no multidatabase %s", name)
	}
	delete(g.multidbs, name)
	return nil
}

// Multidatabase returns the members of a named multidatabase.
func (g *GDD) Multidatabase(name string) ([]string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	m, ok := g.multidbs[name]
	if !ok {
		return nil, false
	}
	return append([]string(nil), m...), true
}

// MultidatabaseNames lists the defined multidatabases.
func (g *GDD) MultidatabaseNames() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.multidbs))
	for n := range g.multidbs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefineDatabase registers (or re-targets) a database at the global level.
// Database names are unique inside the federation, per §3.1.
func (g *GDD) DefineDatabase(name, service string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if d, ok := g.dbs[name]; ok {
		d.Service = service
		return
	}
	g.dbs[name] = &DatabaseDef{Name: name, Service: service, Tables: make(map[string]*TableDef)}
}

// DropDatabase removes a database from the dictionary.
func (g *GDD) DropDatabase(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.dbs[name]; !ok {
		return fmt.Errorf("%w: %s", ErrNoGlobalDB, name)
	}
	delete(g.dbs, name)
	return nil
}

// Database returns the record of one database.
func (g *GDD) Database(name string) (*DatabaseDef, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	d, ok := g.dbs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoGlobalDB, name)
	}
	// Shallow-clone the map so callers can iterate without racing.
	c := &DatabaseDef{Name: d.Name, Service: d.Service, Tables: make(map[string]*TableDef, len(d.Tables))}
	for k, v := range d.Tables {
		c.Tables[k] = v.Clone()
	}
	return c, nil
}

// ServiceOf returns the service hosting a database.
func (g *GDD) ServiceOf(db string) (string, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	d, ok := g.dbs[db]
	if !ok {
		return "", fmt.Errorf("%w: %s", ErrNoGlobalDB, db)
	}
	return d.Service, nil
}

// DatabaseNames returns sorted database names.
func (g *GDD) DatabaseNames() []string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]string, 0, len(g.dbs))
	for n := range g.dbs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// PutTable inserts or replaces a table definition; IMPORT "replaces the
// definition of previously imported database objects, if necessary".
func (g *GDD) PutTable(db string, def TableDef) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	d, ok := g.dbs[db]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoGlobalDB, db)
	}
	d.Tables[def.Name] = def.Clone()
	return nil
}

// MergeTableColumns adds part's columns to the definition of the table
// it names, creating the definition when absent, and records part's row
// count (partial IMPORT ... COLUMN).
func (g *GDD) MergeTableColumns(db string, part TableDef) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	d, ok := g.dbs[db]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoGlobalDB, db)
	}
	def, ok := d.Tables[part.Name]
	if !ok {
		def = &TableDef{Name: part.Name, IsView: part.IsView}
		d.Tables[part.Name] = def
	}
	def.Rows = part.Rows
	for _, c := range part.Columns {
		if !def.HasColumn(c.Name) {
			def.Columns = append(def.Columns, c)
		}
	}
	return nil
}

// DropTable removes a table from the dictionary.
func (g *GDD) DropTable(db, table string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	d, ok := g.dbs[db]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoGlobalDB, db)
	}
	if _, ok := d.Tables[table]; !ok {
		return fmt.Errorf("%w: %s.%s", ErrNoGlobalTable, db, table)
	}
	delete(d.Tables, table)
	return nil
}

// Table returns one table definition.
func (g *GDD) Table(db, table string) (*TableDef, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	d, ok := g.dbs[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoGlobalDB, db)
	}
	t, ok := d.Tables[table]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrNoGlobalTable, db, table)
	}
	return t.Clone(), nil
}

// MatchName reports whether name matches an MSQL multiple identifier
// pattern, where '%' stands for any run of characters. A pattern without
// '%' matches only itself.
func MatchName(name, pattern string) bool {
	if !strings.Contains(pattern, "%") {
		return name == pattern
	}
	return sqlval.Like(name, pattern)
}

// TablesMatching returns the sorted table names of db matching an MSQL
// multiple identifier pattern.
func (g *GDD) TablesMatching(db, pattern string) ([]string, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	d, ok := g.dbs[db]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoGlobalDB, db)
	}
	var out []string
	for name := range d.Tables {
		if MatchName(name, pattern) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// ColumnsMatching returns the sorted column names of db.table matching a
// pattern.
func (g *GDD) ColumnsMatching(db, table, pattern string) ([]string, error) {
	t, err := g.Table(db, table)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, c := range t.Columns {
		if MatchName(c.Name, pattern) {
			out = append(out, c.Name)
		}
	}
	sort.Strings(out)
	return out, nil
}
