package catalog

import (
	"context"
	"fmt"

	"msql/internal/lam"
	"msql/internal/schema"
)

// ImportSpec selects what an IMPORT DATABASE statement brings into the
// GDD. Zero value imports every public table and view of the database.
type ImportSpec struct {
	Table   string   // single table; empty = all tables
	Columns []string // partial table definition; empty = all columns
	View    string   // single view; empty with Table empty = all views too
}

// ImportDatabase implements the paper's IMPORT statement: it copies
// schema information from a service's Local Conceptual Schema into the
// GDD, replacing previously imported definitions, together with each
// table's row count as the service reports it. The context bounds the
// remote Describe/List calls.
func ImportDatabase(ctx context.Context, gdd *GDD, ad *AD, client lam.Client, db, service string, spec ImportSpec) error {
	if _, err := ad.Lookup(service); err != nil {
		return err
	}
	gdd.DefineDatabase(db, service)

	importOne := func(name string, isView bool, only []string) error {
		desc, err := client.Describe(ctx, db, name)
		if err != nil {
			return fmt.Errorf("catalog: import %s.%s: %w", db, name, err)
		}
		def := TableDef{Name: name, IsView: isView, Columns: desc.Columns, Rows: desc.Rows}
		if len(only) > 0 {
			var sub []schema.Column
			for _, want := range only {
				found := false
				for _, c := range desc.Columns {
					if c.Name == want {
						sub = append(sub, c)
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("catalog: import %s.%s: no column %q", db, name, want)
				}
			}
			def.Columns = sub
			return gdd.MergeTableColumns(db, def)
		}
		return gdd.PutTable(db, def)
	}

	switch {
	case spec.Table != "":
		return importOne(spec.Table, false, spec.Columns)
	case spec.View != "":
		return importOne(spec.View, true, spec.Columns)
	default:
		tables, err := client.ListTables(ctx, db)
		if err != nil {
			return err
		}
		for _, t := range tables {
			if err := importOne(t, false, nil); err != nil {
				return err
			}
		}
		views, err := client.ListViews(ctx, db)
		if err != nil {
			return err
		}
		for _, v := range views {
			if err := importOne(v, true, nil); err != nil {
				return err
			}
		}
		return nil
	}
}
