// Package experiments regenerates the paper's worked examples (see
// DESIGN.md §3 and EXPERIMENTS.md): E1–E4 rebuild the outcome tables of
// §2, §3.2, §3.3 and §3.4 from a fresh demo federation, and E5 the §4.3
// DOL listing. The package's tests compare every cell of those tables
// with EXPERIMENTS.md, and assert the direction of each qualitative
// performance claim the paper makes (early release, substitution,
// consistency levels, synchronization granularity, schema import).
// Measured numbers come from bench/, never from here.
package experiments

// Table is one regenerated outcome table.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}
