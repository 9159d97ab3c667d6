package obs

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
)

// PlanNode is the shared stats carrier for query-plan observability. Every
// tier of the federation — coordinator, DOL engine, LAM site, local volcano
// executor — describes the operator it ran as a PlanNode and hangs its
// inputs underneath, so one tree spans the whole multidatabase statement.
//
// The struct is deliberately plain (exported scalar fields, no interfaces)
// so it rides the gob wire protocol between LAM client and server and
// marshals to JSON for EXPLAIN FORMAT JSON and /debug/queries unchanged.
// obs sits below storage in the import graph, so page statistics are plain
// counters here; the executor bridges them from storage.PageCounters.
type PlanNode struct {
	// Op names the operator: "select", "scan", "index-probe", "hash-join",
	// "task", "ship", "multitx", ...
	Op string `json:"op"`
	// Detail is the operator-specific annotation (table and key columns for
	// a probe, database for a task, VITAL/COMP flags for a scope entry).
	Detail string `json:"detail,omitempty"`
	// Children are the operator's inputs, outermost first.
	Children []*PlanNode `json:"children,omitempty"`

	// Analyzed marks that the runtime statistics below were actually
	// collected (EXPLAIN ANALYZE) rather than left at zero (plain EXPLAIN).
	Analyzed bool `json:"analyzed,omitempty"`
	// Rows is the total number of rows the operator emitted.
	Rows int64 `json:"rows,omitempty"`
	// Loops counts how many times the operator was restarted (inner side
	// of a nested loop resets once per outer row); for a "ship" node, the
	// Load batches that carried its rows.
	Loops int64 `json:"loops,omitempty"`
	// TimeNS is wall time attributed to this operator, exclusive of
	// children where the executor can tell them apart.
	TimeNS int64 `json:"time_ns,omitempty"`
	// PageHits / PageMisses are buffer-pool fetches attributed to this
	// operator's row accesses.
	PageHits   int64 `json:"page_hits,omitempty"`
	PageMisses int64 `json:"page_misses,omitempty"`
}

// Add appends a child node and returns it, for fluent tree building.
func (n *PlanNode) Add(child *PlanNode) *PlanNode {
	n.Children = append(n.Children, child)
	return child
}

// TotalRows sums Rows over the whole subtree rooted at n.
func (n *PlanNode) TotalRows() int64 {
	if n == nil {
		return 0
	}
	total := n.Rows
	for _, c := range n.Children {
		total += c.TotalRows()
	}
	return total
}

// Digest returns a stable hash of the plan *shape* (operators and details,
// not runtime statistics), so the slow-query log can group statements that
// chose the same plan. The digest is deliberately insensitive to ANALYZE
// annotations: the same query planned the same way digests identically
// whether or not it was executed.
func (n *PlanNode) Digest() string {
	h := fnv.New64a()
	n.digestInto(h)
	return fmt.Sprintf("%016x", h.Sum64())
}

func (n *PlanNode) digestInto(h interface{ Write([]byte) (int, error) }) {
	if n == nil {
		return
	}
	h.Write([]byte(n.Op))
	h.Write([]byte{0})
	h.Write([]byte(n.Detail))
	h.Write([]byte{1})
	for _, c := range n.Children {
		c.digestInto(h)
	}
	h.Write([]byte{2})
}

// Render pretty-prints the tree in the style of EXPLAIN output:
//
//	select
//	├─ scan emp (rows=30 loops=1 pages=4+0)
//	└─ hash-join dept.dno (rows=30 loops=1)
func (n *PlanNode) Render() string {
	var b strings.Builder
	n.renderInto(&b, "", "")
	return b.String()
}

func (n *PlanNode) renderInto(b *strings.Builder, self, indent string) {
	b.WriteString(self)
	b.WriteString(n.Op)
	if n.Detail != "" {
		b.WriteString(" ")
		b.WriteString(n.Detail)
	}
	if n.Analyzed {
		fmt.Fprintf(b, " (rows=%d loops=%d time=%.3fms", n.Rows, n.Loops, float64(n.TimeNS)/1e6)
		if n.PageHits != 0 || n.PageMisses != 0 {
			fmt.Fprintf(b, " pages=%d+%d", n.PageHits, n.PageMisses)
		}
		b.WriteString(")")
	}
	b.WriteString("\n")
	for i, c := range n.Children {
		if i == len(n.Children)-1 {
			c.renderInto(b, indent+"└─ ", indent+"   ")
		} else {
			c.renderInto(b, indent+"├─ ", indent+"│  ")
		}
	}
}

// JSON marshals the tree for EXPLAIN FORMAT JSON (indented, stable).
func (n *PlanNode) JSON() string {
	out, err := json.MarshalIndent(n, "", "  ")
	if err != nil {
		return fmt.Sprintf("{%q:%q}", "error", err.Error())
	}
	return string(out)
}

// Clone deep-copies the subtree (the executor hands trees to the inventory
// while it may still be mutating its own copy).
func (n *PlanNode) Clone() *PlanNode {
	if n == nil {
		return nil
	}
	c := *n
	c.Children = nil
	for _, ch := range n.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return &c
}

// Find returns the first node in preorder whose Op matches, or nil. Tests
// and tooling use it to pick operators out of a rendered tree.
func (n *PlanNode) Find(op string) *PlanNode {
	if n == nil {
		return nil
	}
	if n.Op == op {
		return n
	}
	for _, c := range n.Children {
		if f := c.Find(op); f != nil {
			return f
		}
	}
	return nil
}

// FindAll returns every node in preorder whose Op matches.
func (n *PlanNode) FindAll(op string) []*PlanNode {
	if n == nil {
		return nil
	}
	var out []*PlanNode
	if n.Op == op {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = append(out, c.FindAll(op)...)
	}
	return out
}
