package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"msql/internal/dol"
	"msql/internal/dolengine"
	"msql/internal/msqlparser"
	"msql/internal/obs"
	"msql/internal/sqlparser"
	"msql/internal/translate"
)

// execExplain runs EXPLAIN [ANALYZE] on a retrieval query. Plain EXPLAIN
// translates the query — decomposition, per-site tasks, ships, the final
// coordinator query — and renders the federation plan without touching
// any site. ANALYZE executes it: every SELECT in a task body is wrapped
// in a site-local EXPLAIN ANALYZE, which the local engines execute
// normally (returning the target's real rows, so shipping and multitable
// assembly are unchanged) while attaching their annotated plan subtrees;
// those subtrees are then grafted under the federation tree's task nodes
// together with per-task wall time and row counts.
func (s *Session) execExplain(ctx context.Context, ex *msqlparser.ExplainStmt) (*Result, error) {
	f := s.f
	if _, ok := ex.Query.Body.(*sqlparser.SelectStmt); !ok {
		return nil, fmt.Errorf("core: EXPLAIN supports SELECT queries, got %s", sqlparser.Deparse(ex.Query.Body))
	}
	scope, lets, q := s.selectTarget(ex.Query)
	if len(scope) == 0 {
		return nil, translate.ErrNoScope
	}
	tsp, _ := obs.StartSpan(ctx, "translate", obs.KindTranslate)
	prog, meta, err := f.tctx.TranslateQuery(scope, lets, q)
	tsp.EndErr(err)
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: KindExplain, DOL: printPlan(ctx, prog), Skipped: meta.Skipped, PlanJSON: ex.JSON}
	if !ex.Analyze || f.DryRun {
		res.Plan = federationPlan(prog, meta, nil)
		return res, nil
	}
	for _, st := range prog.Stmts {
		ts, ok := st.(*dol.TaskStmt)
		if !ok {
			continue
		}
		for i, body := range ts.Body {
			if bsel, ok := body.(*sqlparser.SelectStmt); ok {
				ts.Body[i] = &sqlparser.ExplainStmt{Analyze: true, Target: bsel}
			}
		}
	}
	start := time.Now()
	esp, ectx := obs.StartSpan(ctx, "execute:explain", obs.KindEngine)
	out, err := f.engine.Run(ectx, prog)
	esp.EndErr(err)
	if err != nil {
		return res, err
	}
	if err := f.assembleMultitable(res, meta, out); err != nil {
		return res, err
	}
	root := federationPlan(prog, meta, out)
	root.Analyzed = true
	root.Loops = 1
	root.TimeNS = time.Since(start).Nanoseconds()
	for _, t := range res.Multitable.Tables {
		root.Rows += int64(len(t.Rows))
	}
	for _, ch := range root.Children {
		root.PageHits += ch.PageHits
		root.PageMisses += ch.PageMisses
	}
	res.Plan = root
	return res, nil
}

// roleName labels a task's translator role for plan trees.
func roleName(r translate.TaskRole) string {
	switch r {
	case translate.RoleRead:
		return "read"
	case translate.RoleWrite:
		return "write"
	case translate.RoleComp:
		return "comp"
	case translate.RoleFinal:
		return "final"
	default:
		return "task"
	}
}

// federationPlan builds the coordinator-side plan tree from a translated
// DOL program: one node per task (scope entry, role, VITAL/COMP flags)
// and per ship, plus the scope entries the query was not pertinent to.
// With a non-nil outcome, task nodes are annotated with status, wall
// time, and row counts, and each site's EXPLAIN ANALYZE subtree is
// grafted under its task node.
func federationPlan(prog *dol.Program, meta *translate.Meta, out *dolengine.Outcome) *obs.PlanNode {
	byName := make(map[string]translate.TaskMeta, len(meta.Tasks))
	for _, tm := range meta.Tasks {
		byName[tm.Name] = tm
	}
	mode := "fan-out select"
	if meta.FinalTask != "" {
		mode = "decomposed global query"
	}
	root := &obs.PlanNode{Op: "msql", Detail: mode}
	var walk func(stmts []dol.Stmt)
	walk = func(stmts []dol.Stmt) {
		for _, st := range stmts {
			switch st := st.(type) {
			case *dol.TaskStmt:
				tm := byName[st.Name]
				detail := st.Name
				if tm.Entry.Name != "" {
					detail = fmt.Sprintf("%s %s on %s", st.Name, roleName(tm.Role), tm.Entry.Name)
					if tm.Entry.Database != "" && tm.Entry.Database != tm.Entry.Name {
						detail += " (" + tm.Entry.Database + ")"
					}
					if tm.Entry.Vital {
						detail += " VITAL"
					}
					if tm.Comp {
						detail += " COMP"
					}
				}
				node := &obs.PlanNode{Op: "task", Detail: detail}
				if out != nil {
					node.Detail += " status=" + out.TaskStatus(st.Name).String()
					node.Analyzed = true
					node.Loops = 1
					if info := out.Tasks[st.Name]; info != nil {
						node.TimeNS = info.Elapsed.Nanoseconds()
						if info.Result != nil {
							node.Rows = int64(len(info.Result.Rows))
						}
						if info.Plan != nil {
							node.PageHits = info.Plan.PageHits
							node.PageMisses = info.Plan.PageMisses
							node.Children = append(node.Children, info.Plan)
						}
					}
				}
				for _, body := range st.Body {
					// Site-local EXPLAIN wrappers are represented by their
					// grafted subtree; everything else (temp-table DDL,
					// cleanup DROPs) is listed as shipped SQL text.
					if _, ok := body.(*sqlparser.ExplainStmt); ok {
						continue
					}
					if _, ok := body.(*sqlparser.SelectStmt); ok && out != nil {
						continue
					}
					node.Children = append(node.Children, &obs.PlanNode{
						Op: "sql", Detail: sqlparser.Deparse(body),
					})
				}
				root.Add(node)
			case *dol.ShipStmt:
				cols := make([]string, len(st.Columns))
				for i, c := range st.Columns {
					cols[i] = c.Name
				}
				root.Add(&obs.PlanNode{
					Op:     "ship",
					Detail: fmt.Sprintf("%s -> %s.%s(%s)", st.Task, st.To, st.Table, strings.Join(cols, ", ")),
				})
			case *dol.IfStmt:
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(prog.Stmts)
	for _, sk := range meta.Skipped {
		root.Add(&obs.PlanNode{Op: "skipped", Detail: sk.Entry.Name + ": " + sk.Reason})
	}
	return root
}
