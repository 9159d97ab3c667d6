package sqlengine

// Volcano-style executor: each FROM source becomes a levelNode — an
// iterator producing that source's candidate rows one at a time into
// e.current — and runLoops drives the nodes as nested loops, emitting a
// joined row whenever every level holds one. Base tables are pulled row
// by row through the storage's cursor instead of being materialized up
// front, so on a paged engine the working set is bounded by the buffer
// pool, not the table. A level's "column op literal" conjuncts go down
// to its cursor as search arguments (storage.Sarg), which a paged engine
// checks on the tuple bytes so that it decodes only the rows that pass;
// every conjunct stays a filter too, so a sarg only ever skips rows the
// filters would reject.

import (
	"time"

	"msql/internal/schema"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
	"msql/internal/storage"
)

// levelNode produces candidate rows for one loop level. reset repositions
// it for the current bindings of earlier levels; next advances to the
// next row passing this level's filters, publishing it in e.current, and
// reports false when the level is exhausted (leaving e.current nil so
// correlated lookups see NULL).
type levelNode interface {
	reset() error
	next() (bool, error)
}

// runLoops drives the node chain as nested loops. emit is called with
// e.current fully populated; returning false stops the scan early (LIMIT).
func runLoops(e *env, nodes []levelNode, emit func() (bool, error)) error {
	if len(nodes) == 0 {
		return nil
	}
	i := 0
	if err := nodes[0].reset(); err != nil {
		return err
	}
	for i >= 0 {
		ok, err := nodes[i].next()
		if err != nil {
			return err
		}
		if !ok {
			i--
			continue
		}
		if i == len(nodes)-1 {
			cont, err := emit()
			if err != nil {
				return err
			}
			if !cont {
				return nil
			}
			continue
		}
		i++
		if err := nodes[i].reset(); err != nil {
			return err
		}
	}
	return nil
}

// buildNodes picks the access path for every level: index probe when the
// planner pinned all key columns, hash join for an equality across
// levels, sequential scan otherwise. Scans, probe fallbacks and hash-join
// builds open their cursor with the level's sargs. Under EXPLAIN ANALYZE
// (e.stats set) each node is wrapped in a statNode that meters rows,
// loops and wall time, and its page traffic is attributed to the level's
// PageCounters.
func buildNodes(e *env, plan *joinPlan) []levelNode {
	nodes := make([]levelNode, len(e.sources))
	for i := range e.sources {
		filters, sargs := plan.level[i], plan.sargs[i]
		var pc *storage.PageCounters
		if e.stats != nil {
			pc = &e.stats.nodes[i].pc
		}
		switch {
		case plan.probe[i] != nil:
			nodes[i] = &probeNode{
				e: e, si: i, probe: plan.probe[i], filters: filters, pc: pc,
				fallback: &scanNode{e: e, si: i, filters: filters, sargs: sargs, pc: pc},
			}
		case plan.hash[i] != nil:
			nodes[i] = &hashNode{e: e, si: i, h: plan.hash[i], filters: filters, sargs: sargs, pc: pc}
		default:
			nodes[i] = &scanNode{e: e, si: i, filters: filters, sargs: sargs, pc: pc}
		}
		if e.stats != nil {
			nodes[i] = &statNode{inner: nodes[i], st: &e.stats.nodes[i]}
		}
	}
	return nodes
}

// execStats holds the per-level runtime counters of one EXPLAIN ANALYZE
// execution. Page traffic is recorded per level rather than per table
// because concurrent statements share tables (and their buffer pool).
type execStats struct {
	nodes []nodeStats
}

type nodeStats struct {
	rows   int64
	loops  int64
	timeNS int64
	pc     storage.PageCounters
}

func newExecStats(levels int) *execStats {
	return &execStats{nodes: make([]nodeStats, levels)}
}

// statNode meters the node it wraps. It exists only under EXPLAIN
// ANALYZE, so the normal execution path pays no timing overhead.
type statNode struct {
	inner levelNode
	st    *nodeStats
}

func (n *statNode) reset() error {
	n.st.loops++
	t0 := time.Now()
	err := n.inner.reset()
	n.st.timeNS += time.Since(t0).Nanoseconds()
	return err
}

func (n *statNode) next() (bool, error) {
	t0 := time.Now()
	ok, err := n.inner.next()
	n.st.timeNS += time.Since(t0).Nanoseconds()
	if ok {
		n.st.rows++
	}
	return ok, err
}

// passFilters evaluates this level's pushed-down conjuncts against the
// current bindings.
func passFilters(e *env, filters []sqlparser.Expr) (bool, error) {
	for _, c := range filters {
		v, err := evalExpr(e, c)
		if err != nil {
			return false, err
		}
		if !v.Truthy() {
			return false, nil
		}
	}
	return true, nil
}

// scanNode is a sequential scan: over the storage's cursor for base
// tables, or over materialized rows for views. The cursor is opened with
// the level's sargs, so a paged storage decodes only the rows that
// satisfy them; filters (every conjunct, the sarg'd ones included) run on
// the cursor's borrowed row, and a row that passes is published as a
// clone, so every row a node leaves in e.current is the statement's to
// keep.
type scanNode struct {
	e       *env
	si      int
	filters []sqlparser.Expr
	sargs   []storage.Sarg
	pc      *storage.PageCounters
	it      Cursor
	pos     int
}

func (n *scanNode) reset() error {
	if src := n.e.sources[n.si]; src.tbl != nil {
		if n.it == nil {
			n.it = src.tbl.Scan(n.pc, n.sargs)
		} else {
			n.it.Reset()
		}
	}
	n.pos = 0
	return nil
}

func (n *scanNode) next() (bool, error) {
	src := n.e.sources[n.si]
	for {
		var row schema.Row
		if n.it != nil {
			pos, r, ok := n.it.Next()
			if !ok {
				n.e.current[n.si] = nil
				return false, src.tbl.Err()
			}
			n.e.pos[n.si], row = pos, r
		} else {
			if n.pos >= len(src.rows) {
				n.e.current[n.si] = nil
				return false, nil
			}
			row = src.rows[n.pos]
			n.pos++
		}
		n.e.current[n.si] = row
		ok, err := passFilters(n.e, n.filters)
		if err != nil {
			return false, err
		}
		if ok {
			if n.it != nil {
				n.e.current[n.si] = row.Clone() // borrowed until the cursor's next Next
			}
			return true, nil
		}
	}
}

// hashNode probes a hash table built over its source, bucketed by the
// join key, instead of scanning every row per outer binding.
type hashNode struct {
	e       *env
	si      int
	h       *hashJoin
	filters []sqlparser.Expr
	sargs   []storage.Sarg // for the build scan
	pc      *storage.PageCounters
	bucket  []schema.Row
	pos     int
}

func (n *hashNode) reset() error {
	if err := n.h.build(n.e, n.si, n.pc, n.sargs); err != nil {
		return err
	}
	key, err := evalExpr(n.e, n.h.probeExpr)
	if err != nil {
		return err
	}
	n.bucket = nil
	n.pos = 0
	if !key.IsNull() { // NULL never joins
		n.bucket = n.h.table[key.GroupKey()]
	}
	return nil
}

func (n *hashNode) next() (bool, error) {
	for n.pos < len(n.bucket) {
		row := n.bucket[n.pos]
		n.pos++
		n.e.current[n.si] = row
		ok, err := passFilters(n.e, n.filters)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	n.e.current[n.si] = nil
	return false, nil
}

// probeNode answers a level with a single primary-key index lookup: the
// planner pinned every key column to an expression over earlier levels,
// so at most one row can match. The pinning conjuncts remain in filters,
// which keeps the probe a pure access path — it can only skip rows the
// filters would reject anyway — and lets a probe value that has no exact
// representation in the key's type fall back to a filtered scan.
type probeNode struct {
	e        *env
	si       int
	probe    *indexProbe
	filters  []sqlparser.Expr
	pc       *storage.PageCounters
	fallback *scanNode

	scanning bool // coercion failed; fallback scan took over for this reset
	row      schema.Row
}

func (n *probeNode) reset() error {
	n.scanning = false
	n.row = nil
	src := n.e.sources[n.si]
	vals := make([]sqlval.Value, len(n.probe.exprs))
	for i, x := range n.probe.exprs {
		v, err := evalExpr(n.e, x)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil // NULL never equals a key: no match
		}
		cv, err := sqlval.CoerceTo(v, src.cols[n.probe.keyCols[i]].Type)
		if err != nil {
			n.scanning = true
			return n.fallback.reset()
		}
		vals[i] = cv
	}
	if pos, ok := n.probe.index.LookupKey(vals); ok {
		n.e.pos[n.si], n.row = pos, n.probe.index.RowAt(pos, n.pc)
	}
	return src.tbl.Err()
}

func (n *probeNode) next() (bool, error) {
	if n.scanning {
		return n.fallback.next()
	}
	row := n.row
	if row == nil {
		n.e.current[n.si] = nil
		return false, nil
	}
	n.row = nil
	n.e.current[n.si] = row
	ok, err := passFilters(n.e, n.filters)
	if err != nil {
		return false, err
	}
	if !ok {
		n.e.current[n.si] = nil
		return false, nil
	}
	return true, nil
}
