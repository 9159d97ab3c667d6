package sqlengine

import (
	"msql/internal/schema"
	"msql/internal/sqlparser"
	"msql/internal/storage"
)

// joinPlan distributes WHERE conjuncts over the join's loop levels and
// records hash-join and index-probe opportunities. Conjuncts that cannot
// be classified safely (subqueries, unresolvable references) stay at the
// last level, where every source is bound.
type joinPlan struct {
	level map[int][]sqlparser.Expr
	hash  map[int]*hashJoin
	probe map[int]*indexProbe
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
// storage cursor and materialized sources from their row slice. Page traffic
// is recorded on pc (nil-safe) so an EXPLAIN ANALYZE attributes the build
// scan to the hash-join operator.
func (h *hashJoin) build(e *env, i int, pc *storage.PageCounters) error {
	if h.table != nil {
		return nil
	}
	h.table = make(map[string][]schema.Row)
	saved := e.current[i]
	add := func(row schema.Row) error {
		e.current[i] = row
		v, err := evalExpr(e, h.buildExpr)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil // NULL never joins
		}
		key := v.GroupKey()
		h.table[key] = append(h.table[key], row)
		return nil
	}
	src := e.sources[i]
	if src.tbl != nil {
		it := src.tbl.Scan(pc)
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
	conjuncts := splitConjuncts(where)
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
	return plan
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
	idx, _, err := e.resolve(cr)
	if err != nil || idx/1000 != si {
		return 0, false
	}
	return idx % 1000, true
}

func splitConjuncts(e sqlparser.Expr) []sqlparser.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []sqlparser.Expr{e}
}

// exprSources returns the bitmask of source indexes x references. pure
// is false when x contains subqueries or references the bound sources
// cannot resolve.
func exprSources(e *env, x sqlparser.Expr) (uint64, bool) {
	var mask uint64
	pure := true
	walkShallow(x, func(n sqlparser.Expr) {
		switch v := n.(type) {
		case sqlparser.ColRef:
			idx, _, err := e.resolve(v)
			if err != nil {
				pure = false
				return
			}
			mask |= 1 << uint(idx/1000)
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
