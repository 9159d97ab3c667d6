package sqlengine

import (
	"fmt"
	"strings"
	"time"

	"msql/internal/obs"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// explainCtx carries EXPLAIN state through the executor. node is where
// the current select, update or delete attaches its plan subtree;
// analyze turns on the metering wrappers and executes the statement for
// real.
type explainCtx struct {
	analyze bool
	node    *obs.PlanNode
	// levels are the plan nodes of the current statement's loop levels,
	// in source order, so annotate can copy runtime stats onto them.
	levels []*obs.PlanNode
}

// branch returns a child context attached to a fresh subtree node, for
// UNION branches. Nil-safe: a nil receiver yields a nil child.
func (ec *explainCtx) branch() *explainCtx {
	if ec == nil {
		return nil
	}
	child := ec.node.Add(&obs.PlanNode{Op: "select"})
	return &explainCtx{analyze: ec.analyze, node: child}
}

// describe records the chosen plan shape for one union-free select: one
// child per loop level (outermost first) naming the access path, plus an
// aggregate step when the query groups.
func (ec *explainCtx) describe(e *env, sel *sqlparser.SelectStmt, plan *joinPlan) {
	n := ec.node
	if n.Op == "" {
		n.Op = "select"
	}
	var mods []string
	if sel.Distinct {
		mods = append(mods, "distinct")
	}
	n.Detail = strings.Join(append(mods, orderLimit(sel)...), " ")
	parent := n
	if len(sel.GroupBy) > 0 || len(collectAggregates(sel)) > 0 {
		parent = n.Add(&obs.PlanNode{Op: "aggregate",
			Detail: fmt.Sprintf("group by %d key(s)", len(sel.GroupBy))})
	}
	ec.describeLevels(parent, e, plan)
}

// orderLimit names the ORDER BY and LIMIT steps of a select or union.
func orderLimit(sel *sqlparser.SelectStmt) (mods []string) {
	if len(sel.OrderBy) > 0 {
		mods = append(mods, "order")
	}
	if sel.Limit >= 0 {
		mods = append(mods, fmt.Sprintf("limit %d", sel.Limit))
	}
	return mods
}

// describeLevels adds one child per loop level under parent, naming the
// access path the plan chose for it, the search arguments its scan or
// hash-join build hands the storage, and the filters pushed down to it.
func (ec *explainCtx) describeLevels(parent *obs.PlanNode, e *env, plan *joinPlan) {
	ec.levels = make([]*obs.PlanNode, len(e.sources))
	for i, src := range e.sources {
		var ln *obs.PlanNode
		switch {
		case plan.probe[i] != nil:
			p := plan.probe[i]
			var keys []string
			for _, ci := range p.keyCols {
				keys = append(keys, src.cols[ci].Name)
			}
			ln = &obs.PlanNode{Op: "index-probe",
				Detail: fmt.Sprintf("%s key(%s)", src.qualifier, strings.Join(keys, ", "))}
		case plan.hash[i] != nil:
			h := plan.hash[i]
			ln = &obs.PlanNode{Op: "hash-join",
				Detail: fmt.Sprintf("%s build(%s) probe(%s)", src.qualifier,
					sqlparser.DeparseExpr(h.buildExpr), sqlparser.DeparseExpr(h.probeExpr))}
		default:
			ln = &obs.PlanNode{Op: "scan", Detail: src.qualifier}
			if src.tbl == nil {
				ln.Detail += " [materialized]"
			}
		}
		if ss := plan.sargs[i]; len(ss) > 0 && plan.probe[i] == nil {
			var parts []string
			for _, s := range ss {
				parts = append(parts, fmt.Sprintf("%s %s %s", src.cols[s.Col].Name, s.Op, s.Val.SQL()))
			}
			ln.Detail += " sarg(" + strings.Join(parts, " AND ") + ")"
		}
		if fs := plan.level[i]; len(fs) > 0 {
			var parts []string
			for _, f := range fs {
				parts = append(parts, sqlparser.DeparseExpr(f))
			}
			ln.Detail += " filter(" + strings.Join(parts, " AND ") + ")"
		}
		ec.levels[i] = parent.Add(ln)
	}
}

// annotate copies the executed levels' runtime counters onto their plan
// nodes. Called via defer so early-limit and error returns still report
// whatever ran.
func (ec *explainCtx) annotate(e *env) {
	if e.stats == nil {
		return
	}
	for i, ln := range ec.levels {
		if ln == nil || i >= len(e.stats.nodes) {
			continue
		}
		st := &e.stats.nodes[i]
		ln.Analyzed = true
		ln.Rows = st.rows
		ln.Loops = st.loops
		ln.TimeNS = st.timeNS
		ln.PageHits = st.pc.Hits()
		ln.PageMisses = st.pc.Misses()
	}
}

// execExplain implements the EXPLAIN statement at the local-engine tier
// for SELECT, UPDATE and DELETE targets, which share one planner. Plain
// EXPLAIN renders the plan as QUERY PLAN text rows without running the
// target. EXPLAIN ANALYZE executes the target — a write really writes,
// inside the caller's transaction — and returns the target's own result
// with the annotated tree attached in Result.Plan: the federation
// coordinator relies on getting both, so it can assemble the global
// result and graft the local subtree into the statement-wide plan.
func execExplain(tx Storage, db string, ex *sqlparser.ExplainStmt) (*Result, error) {
	root := &obs.PlanNode{}
	ec := &explainCtx{analyze: ex.Analyze, node: root}
	t0 := time.Now()
	var res *Result
	var err error
	switch t := ex.Target.(type) {
	case *sqlparser.SelectStmt:
		res, err = execSelectEx(tx, db, t, nil, ec)
	case *sqlparser.UpdateStmt:
		root.Op, root.Detail = "update", t.Table.String()
		res, err = execUpdate(tx, db, t, ec)
	case *sqlparser.DeleteStmt:
		root.Op, root.Detail = "delete", t.Table.String()
		res, err = execDelete(tx, db, t, ec)
	default:
		return nil, fmt.Errorf("sqlengine: EXPLAIN supports SELECT, UPDATE and DELETE statements, not %s",
			strings.Fields(sqlparser.Deparse(ex.Target))[0])
	}
	if err != nil {
		return nil, err
	}
	if !ex.Analyze {
		return planTextResult(root, ex.JSON), nil
	}
	root.Analyzed = true
	root.Rows = int64(res.RowsAffected)
	root.Loops = 1
	root.TimeNS = time.Since(t0).Nanoseconds()
	// Page counters are set only on access-path leaves, which may sit
	// below intermediate aggregate/select nodes — sum the whole tree.
	var sumPages func(n *obs.PlanNode)
	sumPages = func(n *obs.PlanNode) {
		for _, c := range n.Children {
			root.PageHits += c.PageHits
			root.PageMisses += c.PageMisses
			sumPages(c)
		}
	}
	sumPages(root)
	res.Plan = root
	return res, nil
}

// planTextResult renders a plan tree as a single-column QUERY PLAN result.
func planTextResult(plan *obs.PlanNode, asJSON bool) *Result {
	text := plan.Render()
	if asJSON {
		text = plan.JSON() + "\n"
	}
	res := &Result{
		Columns: []ResultCol{{Name: "QUERY PLAN", Type: sqlval.KindString}},
		Plan:    plan,
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, []sqlval.Value{sqlval.Str(line)})
	}
	res.RowsAffected = len(res.Rows)
	return res
}
