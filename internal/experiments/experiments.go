// Package experiments implements the reproduction harness for every
// artifact of the paper's evaluation (see DESIGN.md §3 and
// EXPERIMENTS.md): the semantic experiments E1–E5 regenerate the worked
// examples and the Section 4.3 DOL listing; F1/F2 exercise the
// architecture of Figures 1 and 2; B1–B6 measure the performance
// properties the paper claims qualitatively (parallelism, commit-mode
// overhead, early release through compensation, substitution cost,
// transport overhead, cross-database join shipping).
//
// Each experiment returns a Table that cmd/msqlbench prints.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is one printable experiment result.
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

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// ms formats a duration as fractional milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f ms", float64(d.Microseconds())/1000.0)
}

// us formats a duration as fractional microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f µs", float64(d.Nanoseconds())/1000.0)
}

// timeIt runs fn once untimed (warmup), then n timed times, returning the
// mean duration.
func timeIt(n int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}
