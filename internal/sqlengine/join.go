package sqlengine

import (
	"msql/internal/schema"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
	"msql/internal/storage"
)

// joinPlan distributes WHERE conjuncts over the join's loop levels and
// records hash-join and index-probe opportunities and each level's
// search arguments. Conjuncts that cannot be classified safely
// (subqueries, unresolvable references) stay at the last level, where
// every source is bound.
type joinPlan struct {
	level map[int][]sqlparser.Expr
	hash  map[int]*hashJoin
	probe map[int]*indexProbe
	sargs map[int][]storage.Sarg
}

// indexProbe answers a loop level with one primary-key lookup instead of
// a scan: every key column of the level's base table is pinned by a pure
// equality whose other side references only earlier levels or constants.
// The pinning conjuncts stay in plan.level as filters, so the probe is
// purely an access path.
type indexProbe struct {
	index   KeyProber        // the level's table, which keeps the index
	keyCols []int            // key column positions, in KeyColumns order
	exprs   []sqlparser.Expr // probe expressions, parallel to keyCols
}

// hashJoin is one equality-driven probe: source i's rows indexed by
// buildExpr, probed with probeExpr (which references earlier sources
// only).
type hashJoin struct {
	buildExpr sqlparser.Expr
	probeExpr sqlparser.Expr
	table     map[string][]schema.Row
}

// build populates the hash table once, pulling base tables through their
// storage cursor and materialized sources from their row slice. A
// cursor's rows are borrowed until its next Next, so the build clones
// every row it keeps. The cursor gets the level's sargs, which can only
// leave out rows the level's filters reject at probe time. Page traffic
// is recorded on pc (nil-safe) so an EXPLAIN ANALYZE attributes the
// build scan to the hash-join operator.
func (h *hashJoin) build(e *env, i int, pc *storage.PageCounters, sargs []storage.Sarg) error {
	if h.table != nil {
		return nil
	}
	h.table = make(map[string][]schema.Row)
	saved := e.current[i]
	src := e.sources[i]
	add := func(row schema.Row) error {
		e.current[i] = row
		v, err := evalExpr(e, h.buildExpr)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil // NULL never joins
		}
		if src.tbl != nil {
			row = row.Clone()
		}
		key := v.GroupKey()
		h.table[key] = append(h.table[key], row)
		return nil
	}
	if src.tbl != nil {
		it := src.tbl.Scan(pc, sargs)
		for {
			_, row, ok := it.Next()
			if !ok {
				break
			}
			if err := add(row); err != nil {
				e.current[i] = saved
				return err
			}
		}
		if err := src.tbl.Err(); err != nil {
			e.current[i] = saved
			return err
		}
	} else {
		for _, row := range src.rows {
			if err := add(row); err != nil {
				e.current[i] = saved
				return err
			}
		}
	}
	e.current[i] = saved
	return nil
}

// planJoin analyzes the WHERE clause against the bound sources.
func planJoin(e *env, where sqlparser.Expr) *joinPlan {
	plan := &joinPlan{
		level: make(map[int][]sqlparser.Expr),
		hash:  make(map[int]*hashJoin),
		probe: make(map[int]*indexProbe),
	}
	if where == nil || len(e.sources) == 0 {
		return plan
	}
	last := len(e.sources) - 1
	conjuncts := sqlparser.Conjuncts(where)
	for _, c := range conjuncts {
		// A conjunct with subqueries or references this level cannot
		// resolve (e.g. correlated names) waits until every source is bound.
		mask, pure := exprSources(e, c)
		lvl := last
		if pure {
			lvl = highestSource(mask, last)
		}
		// Hash-join opportunity: a pure equality whose sides split into
		// {source lvl} and {sources < lvl}.
		if pure && lvl > 0 {
			if eq, ok := c.(*sqlparser.BinaryExpr); ok && eq.Op == "=" && plan.hash[lvl] == nil {
				lm, lok := exprSources(e, eq.L)
				rm, rok := exprSources(e, eq.R)
				ownBit := uint64(1) << uint(lvl)
				below := ownBit - 1
				switch {
				case lok && rok && lm == ownBit && rm != 0 && rm&^below == 0:
					plan.hash[lvl] = &hashJoin{buildExpr: eq.L, probeExpr: eq.R}
				case lok && rok && rm == ownBit && lm != 0 && lm&^below == 0:
					plan.hash[lvl] = &hashJoin{buildExpr: eq.R, probeExpr: eq.L}
				}
			}
		}
		plan.level[lvl] = append(plan.level[lvl], c)
	}
	planProbes(e, plan, conjuncts)
	planSargs(e, plan)
	return plan
}

// sargOps maps the comparisons a search argument can make.
var sargOps = map[string]storage.CmpOp{
	"=": storage.OpEq, "<>": storage.OpNe,
	"<": storage.OpLt, "<=": storage.OpLe,
	">": storage.OpGt, ">=": storage.OpGe,
}

// planSargs hands each base-table level the conjuncts of its own filter
// list that compare one of its columns with a literal, as search
// arguments for the storage cursor. The conjuncts stay in plan.level:
// the storage may ignore a sarg, and one it honours can only skip rows
// the filter would reject, so a sarg is purely an access path.
func planSargs(e *env, plan *joinPlan) {
	for lvl, src := range e.sources {
		if src.tbl == nil {
			continue // a materialized view has no tuples to check
		}
		for _, c := range plan.level[lvl] {
			if s, ok := sargOf(e, c, lvl); ok {
				if plan.sargs == nil {
					plan.sargs = make(map[int][]storage.Sarg)
				}
				plan.sargs[lvl] = append(plan.sargs[lvl], s)
			}
		}
	}
}

// sargOf turns a conjunct "col op literal" or "literal op col", where
// col is a column of source si and op one of = <> < <= > >=, into a
// search argument on that column. "literal op col" is stored with the
// operands swapped, which sqlval.Compare's symmetry makes equivalent.
func sargOf(e *env, c sqlparser.Expr, si int) (storage.Sarg, bool) {
	b, ok := c.(*sqlparser.BinaryExpr)
	if !ok {
		return storage.Sarg{}, false
	}
	op, ok := sargOps[b.Op]
	if !ok {
		return storage.Sarg{}, false
	}
	if v, ok := sargConst(b.R); ok {
		if ci, ok := colRefAt(e, b.L, si); ok {
			return storage.Sarg{Col: ci, Op: op, Val: v}, true
		}
	}
	if v, ok := sargConst(b.L); ok {
		if ci, ok := colRefAt(e, b.R, si); ok {
			return storage.Sarg{Col: ci, Op: op.Flip(), Val: v}, true
		}
	}
	return storage.Sarg{}, false
}

// sargConst reads a sarg's constant: a literal, or a negated numeric
// literal such as -5, which the parser keeps as a unary minus and which
// folds to the value evalExpr would compute.
func sargConst(x sqlparser.Expr) (sqlval.Value, bool) {
	if u, ok := x.(*sqlparser.UnaryExpr); ok && u.Op == "-" {
		lit, ok := u.X.(*sqlparser.Literal)
		if !ok || (lit.Val.K != sqlval.KindInt && lit.Val.K != sqlval.KindFloat) {
			return sqlval.Value{}, false
		}
		v, err := sqlval.Neg(lit.Val)
		return v, err == nil
	}
	lit, ok := x.(*sqlparser.Literal)
	if !ok {
		return sqlval.Value{}, false
	}
	return lit.Val, true
}

// planProbes upgrades loop levels to primary-key index probes. A level
// qualifies when pure equality conjuncts pin every key column of its
// base table to expressions over strictly earlier levels (or constants).
// The equalities stay behind as filters, so a probe can only skip rows
// the filters would reject anyway.
func planProbes(e *env, plan *joinPlan, conjuncts []sqlparser.Expr) {
	for lvl, src := range e.sources {
		index, ok := src.tbl.(KeyProber)
		if !ok {
			continue // a view, or a storage without key indexes
		}
		keys := index.KeyColumns()
		if len(keys) == 0 {
			continue
		}
		slot := make(map[int]int, len(keys)) // column index -> key position
		for i, k := range keys {
			slot[k] = i
		}
		exprs := make([]sqlparser.Expr, len(keys))
		found := 0
		below := uint64(1)<<uint(lvl) - 1
		for _, c := range conjuncts {
			eq, ok := c.(*sqlparser.BinaryExpr)
			if !ok || eq.Op != "=" {
				continue
			}
			for _, side := range [2][2]sqlparser.Expr{{eq.L, eq.R}, {eq.R, eq.L}} {
				ci, ok := colRefAt(e, side[0], lvl)
				if !ok {
					continue
				}
				si, isKey := slot[ci]
				if !isKey || exprs[si] != nil {
					continue
				}
				if m, pure := exprSources(e, side[1]); !pure || m&^below != 0 {
					continue
				}
				exprs[si] = side[1]
				found++
				break
			}
		}
		if found == len(keys) {
			plan.probe[lvl] = &indexProbe{index: index, keyCols: keys, exprs: exprs}
		}
	}
}

// colRefAt reports whether x is a bare column reference into source si,
// returning the column index within that source.
func colRefAt(e *env, x sqlparser.Expr, si int) (int, bool) {
	cr, ok := x.(sqlparser.ColRef)
	if !ok {
		return 0, false
	}
	at, _, err := e.resolve(cr)
	if err != nil || at.src != si {
		return 0, false
	}
	return at.col, true
}

// exprSources returns the bitmask of source indexes x references. pure
// is false when x contains subqueries or references the bound sources
// cannot resolve.
func exprSources(e *env, x sqlparser.Expr) (uint64, bool) {
	var mask uint64
	pure := true
	sqlparser.WalkExpr(x, func(n sqlparser.Expr) {
		switch v := n.(type) {
		case sqlparser.ColRef:
			at, _, err := e.resolve(v)
			if err != nil {
				pure = false
				return
			}
			mask |= 1 << uint(at.src)
		case *sqlparser.SubqueryExpr:
			pure = false
		case *sqlparser.InExpr:
			if v.Query != nil {
				pure = false
			}
		}
	})
	return mask, pure
}

func highestSource(mask uint64, last int) int {
	for i := last; i >= 0; i-- {
		if mask&(1<<uint(i)) != 0 {
			return i
		}
	}
	return 0
}
