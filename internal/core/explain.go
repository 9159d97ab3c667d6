package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"msql/internal/dol"
	"msql/internal/dolengine"
	"msql/internal/msqlparser"
	"msql/internal/obs"
	"msql/internal/semvar"
	"msql/internal/sqlparser"
	"msql/internal/translate"
)

// execExplain runs EXPLAIN [ANALYZE] on a retrieval query or on an
// UPDATE/DELETE: the statement goes through execPlan in EXPLAIN mode.
// Plain EXPLAIN translates the statement — decomposition, per-site
// tasks, ships, the final coordinator query — and renders the federation
// plan without touching any site. ANALYZE executes it: every SELECT,
// UPDATE and DELETE in a task body is wrapped in a site-local EXPLAIN
// ANALYZE, which the local engines execute normally (returning the
// target's real rows or row count, so shipping, multitable assembly and
// 2PC are unchanged) while attaching their annotated plan subtrees;
// those subtrees are then grafted under the federation tree's task nodes
// together with per-task wall time and row counts.
//
// A write forms a unit of its own, like a cross-database manipulation:
// ANALYZE first synchronizes the pending unit, then commits the write
// through the same protocol (journal, 2PC or compensation, triggers) a
// COMMIT would give it — once, for real.
func (s *Session) execExplain(ctx context.Context, ex *msqlparser.ExplainStmt) ([]*Result, error) {
	res := &Result{Kind: KindExplain, PlanJSON: ex.JSON}
	q := ex.Query
	switch q.Body.(type) {
	case *sqlparser.SelectStmt:
		r, err := s.execPlan(ctx, res, ex, func() (*dol.Program, *translate.Meta, error) {
			return s.translateSelect(q)
		})
		return resultList(r), err
	case *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
	default:
		return nil, fmt.Errorf("core: EXPLAIN supports SELECT, UPDATE and DELETE, got %s", sqlparser.Deparse(q.Body))
	}
	var sync *Result
	if ex.Analyze {
		var err error
		if sync, err = s.flush(ctx); err != nil {
			return resultList(sync), err
		}
	}
	r, err := s.execPlan(ctx, res, ex, func() (*dol.Program, *translate.Meta, error) {
		if semvar.IsGlobalQuery(q.Body, s.scope) {
			return s.f.tctx.TranslateQuery(s.scope, s.lets, q)
		}
		return s.f.tctx.TranslateUnit(s.scope, []translate.UnitQuery{{Lets: s.lets, Query: q}}, translate.SyncCommit)
	})
	return resultList(sync, r), err
}

// wrapSiteExplain wraps the SELECT, UPDATE and DELETE statements of the
// program's task bodies in a site-local EXPLAIN ANALYZE.
func wrapSiteExplain(prog *dol.Program) {
	for _, st := range prog.Stmts {
		ts, ok := st.(*dol.TaskStmt)
		if !ok {
			continue
		}
		for i, body := range ts.Body {
			switch body.(type) {
			case *sqlparser.SelectStmt, *sqlparser.UpdateStmt, *sqlparser.DeleteStmt:
				ts.Body[i] = &sqlparser.ExplainStmt{Analyze: true, Target: body}
			}
		}
	}
}

// analyzedPlan is federationPlan over an executed program, with the
// root carrying the statement's wall time since start, its row count and
// the page traffic of all tasks.
func analyzedPlan(prog *dol.Program, meta *translate.Meta, out *dolengine.Outcome, start time.Time, rows int64) *obs.PlanNode {
	root := federationPlan(prog, meta, out)
	root.Analyzed = true
	root.Loops = 1
	root.Rows = rows
	root.TimeNS = time.Since(start).Nanoseconds()
	for _, ch := range root.Children {
		root.PageHits += ch.PageHits
		root.PageMisses += ch.PageMisses
	}
	return root
}

// roleNames label the translator's task roles in plan trees.
var roleNames = [...]string{translate.RoleRead: "read", translate.RoleWrite: "write", translate.RoleComp: "comp", translate.RoleFinal: "final"}

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
	switch {
	case meta.FinalTask != "":
		mode = "decomposed global query"
	case len(meta.Tasks) > 0 && meta.Tasks[0].Role == translate.RoleWrite:
		mode = "fan-out write"
	}
	root := &obs.PlanNode{Op: "msql", Detail: mode}
	if len(meta.Estimates) > 0 {
		ests := make([]string, len(meta.Estimates))
		for i, e := range meta.Estimates {
			ests[i] = e.Database + "=" + strconv.FormatFloat(math.Round(e.Rows*100)/100, 'f', -1, 64)
		}
		root.Add(&obs.PlanNode{Op: "coordinator", Detail: fmt.Sprintf("%s (estimated rows %s)",
			byName[meta.FinalTask].Entry.Name, strings.Join(ests, " "))})
	}
	var walk func(stmts []dol.Stmt)
	walk = func(stmts []dol.Stmt) {
		for _, st := range stmts {
			switch st := st.(type) {
			case *dol.TaskStmt:
				tm := byName[st.Name]
				detail := st.Name
				if tm.Entry.Name != "" {
					detail = fmt.Sprintf("%s %s on %s", st.Name, roleNames[tm.Role], tm.Entry.Name)
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
						if tm.Role == translate.RoleWrite || tm.Role == translate.RoleComp {
							node.Rows = int64(info.RowsAffected)
						} else if info.Result != nil {
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
				node := root.Add(&obs.PlanNode{
					Op:     "ship",
					Detail: fmt.Sprintf("%s -> %s.%s(%s)", st.Task, st.To, st.Table, strings.Join(cols, ", ")),
				})
				if out != nil {
					if info, ran := out.Ships[st]; ran {
						// Rows loaded at the destination; loops counts the
						// Load batches that carried them.
						node.Analyzed = true
						node.Rows = int64(info.Rows)
						node.Loops = int64(info.Batches)
						node.TimeNS = info.Elapsed.Nanoseconds()
					}
				}
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
