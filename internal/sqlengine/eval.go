package sqlengine

import (
	"fmt"
	"math"
	"strings"

	"msql/internal/schema"
	"msql/internal/sqlparser"
	"msql/internal/sqlval"
)

// evalExpr evaluates an expression in the environment.
func evalExpr(e *env, ex sqlparser.Expr) (sqlval.Value, error) {
	switch x := ex.(type) {
	case *sqlparser.Literal:
		return x.Val, nil
	case sqlparser.ColRef:
		return e.lookup(x)
	case *sqlparser.BinaryExpr:
		return evalBinary(e, x)
	case *sqlparser.UnaryExpr:
		v, err := evalExpr(e, x.X)
		if err != nil {
			return sqlval.Null(), err
		}
		if x.Op == "NOT" {
			if v.IsNull() {
				return sqlval.Null(), nil
			}
			return sqlval.Bool(!v.Truthy()), nil
		}
		return sqlval.Neg(v)
	case *sqlparser.FuncCall:
		if e.aggs != nil {
			if v, ok := e.aggs[x]; ok {
				return v, nil
			}
		}
		if aggregateFuncs[x.Name] {
			return sqlval.Null(), fmt.Errorf("sqlengine: aggregate %s outside grouped context", x.Name)
		}
		return evalScalarFunc(e, x)
	case *sqlparser.SubqueryExpr:
		res, err := execSelect(e.tx, e.db, x.Query, e)
		if err != nil {
			return sqlval.Null(), err
		}
		if len(res.Rows) == 0 {
			return sqlval.Null(), nil
		}
		if len(res.Rows) > 1 {
			return sqlval.Null(), ErrNotScalar
		}
		if len(res.Rows[0]) != 1 {
			return sqlval.Null(), fmt.Errorf("sqlengine: scalar subquery must return one column")
		}
		return res.Rows[0][0], nil
	case *sqlparser.InExpr:
		return evalIn(e, x)
	case *sqlparser.BetweenExpr:
		v, err := evalExpr(e, x.X)
		if err != nil {
			return sqlval.Null(), err
		}
		lo, err := evalExpr(e, x.Lo)
		if err != nil {
			return sqlval.Null(), err
		}
		hi, err := evalExpr(e, x.Hi)
		if err != nil {
			return sqlval.Null(), err
		}
		cLo, ok1 := sqlval.Compare(v, lo)
		cHi, ok2 := sqlval.Compare(v, hi)
		if !ok1 || !ok2 {
			return sqlval.Null(), nil
		}
		in := cLo >= 0 && cHi <= 0
		if x.Not {
			in = !in
		}
		return sqlval.Bool(in), nil
	case *sqlparser.IsNullExpr:
		v, err := evalExpr(e, x.X)
		if err != nil {
			return sqlval.Null(), err
		}
		isNull := v.IsNull()
		if x.Not {
			isNull = !isNull
		}
		return sqlval.Bool(isNull), nil
	case *sqlparser.LikeExpr:
		v, err := evalExpr(e, x.X)
		if err != nil {
			return sqlval.Null(), err
		}
		p, err := evalExpr(e, x.Pattern)
		if err != nil {
			return sqlval.Null(), err
		}
		if v.IsNull() || p.IsNull() {
			return sqlval.Null(), nil
		}
		m := sqlval.Like(v.String(), p.String())
		if x.Not {
			m = !m
		}
		return sqlval.Bool(m), nil
	default:
		return sqlval.Null(), fmt.Errorf("sqlengine: unsupported expression %T", ex)
	}
}

func evalBinary(e *env, x *sqlparser.BinaryExpr) (sqlval.Value, error) {
	switch x.Op {
	case "AND":
		l, err := evalExpr(e, x.L)
		if err != nil {
			return sqlval.Null(), err
		}
		if !l.IsNull() && !l.Truthy() {
			return sqlval.Bool(false), nil
		}
		r, err := evalExpr(e, x.R)
		if err != nil {
			return sqlval.Null(), err
		}
		if !r.IsNull() && !r.Truthy() {
			return sqlval.Bool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Bool(true), nil
	case "OR":
		l, err := evalExpr(e, x.L)
		if err != nil {
			return sqlval.Null(), err
		}
		if !l.IsNull() && l.Truthy() {
			return sqlval.Bool(true), nil
		}
		r, err := evalExpr(e, x.R)
		if err != nil {
			return sqlval.Null(), err
		}
		if !r.IsNull() && r.Truthy() {
			return sqlval.Bool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Bool(false), nil
	}
	l, err := evalExpr(e, x.L)
	if err != nil {
		return sqlval.Null(), err
	}
	r, err := evalExpr(e, x.R)
	if err != nil {
		return sqlval.Null(), err
	}
	switch x.Op {
	case "+":
		return sqlval.Arith(sqlval.OpAdd, l, r)
	case "-":
		return sqlval.Arith(sqlval.OpSub, l, r)
	case "*":
		return sqlval.Arith(sqlval.OpMul, l, r)
	case "/":
		return sqlval.Arith(sqlval.OpDiv, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return sqlval.Null(), nil
		}
		c, ok := sqlval.Compare(l, r)
		if !ok {
			return sqlval.Bool(false), nil
		}
		switch x.Op {
		case "=":
			return sqlval.Bool(c == 0), nil
		case "<>":
			return sqlval.Bool(c != 0), nil
		case "<":
			return sqlval.Bool(c < 0), nil
		case "<=":
			return sqlval.Bool(c <= 0), nil
		case ">":
			return sqlval.Bool(c > 0), nil
		default:
			return sqlval.Bool(c >= 0), nil
		}
	default:
		return sqlval.Null(), fmt.Errorf("sqlengine: unsupported operator %q", x.Op)
	}
}

func evalIn(e *env, x *sqlparser.InExpr) (sqlval.Value, error) {
	v, err := evalExpr(e, x.X)
	if err != nil {
		return sqlval.Null(), err
	}
	if v.IsNull() {
		return sqlval.Null(), nil
	}
	var candidates []sqlval.Value
	if x.Query != nil {
		res, err := execSelect(e.tx, e.db, x.Query, e)
		if err != nil {
			return sqlval.Null(), err
		}
		for _, r := range res.Rows {
			if len(r) != 1 {
				return sqlval.Null(), fmt.Errorf("sqlengine: IN subquery must return one column")
			}
			candidates = append(candidates, r[0])
		}
	} else {
		for _, item := range x.List {
			iv, err := evalExpr(e, item)
			if err != nil {
				return sqlval.Null(), err
			}
			candidates = append(candidates, iv)
		}
	}
	found := false
	sawNull := false
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		if sqlval.Equal(v, c) {
			found = true
			break
		}
	}
	if !found && sawNull {
		return sqlval.Null(), nil
	}
	if x.Not {
		found = !found
	}
	return sqlval.Bool(found), nil
}

var aggregateFuncs = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

func evalScalarFunc(e *env, x *sqlparser.FuncCall) (sqlval.Value, error) {
	args := make([]sqlval.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := evalExpr(e, a)
		if err != nil {
			return sqlval.Null(), err
		}
		args[i] = v
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sqlengine: %s expects %d argument(s), got %d", x.Name, n, len(args))
		}
		return nil
	}
	switch x.Name {
	case "UPPER":
		if err := need(1); err != nil {
			return sqlval.Null(), err
		}
		if args[0].IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Str(strings.ToUpper(args[0].String())), nil
	case "LOWER":
		if err := need(1); err != nil {
			return sqlval.Null(), err
		}
		if args[0].IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Str(strings.ToLower(args[0].String())), nil
	case "LENGTH":
		if err := need(1); err != nil {
			return sqlval.Null(), err
		}
		if args[0].IsNull() {
			return sqlval.Null(), nil
		}
		return sqlval.Int(int64(len(args[0].String()))), nil
	case "ABS":
		if err := need(1); err != nil {
			return sqlval.Null(), err
		}
		switch args[0].K {
		case sqlval.KindNull:
			return sqlval.Null(), nil
		case sqlval.KindInt:
			if args[0].I < 0 {
				return sqlval.Int(-args[0].I), nil
			}
			return args[0], nil
		case sqlval.KindFloat:
			return sqlval.Float(math.Abs(args[0].F)), nil
		}
		return sqlval.Null(), fmt.Errorf("sqlengine: ABS of %s", args[0].K)
	case "ROUND":
		if len(args) == 1 {
			args = append(args, sqlval.Int(0))
		}
		if err := need(2); err != nil {
			return sqlval.Null(), err
		}
		if args[0].IsNull() {
			return sqlval.Null(), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return sqlval.Null(), fmt.Errorf("sqlengine: ROUND of %s", args[0].K)
		}
		d, _ := args[1].AsInt()
		scale := math.Pow(10, float64(d))
		return sqlval.Float(math.Round(f*scale) / scale), nil
	case "SUBSTR":
		if len(args) == 2 {
			args = append(args, sqlval.Int(math.MaxInt32))
		}
		if err := need(3); err != nil {
			return sqlval.Null(), err
		}
		if args[0].IsNull() {
			return sqlval.Null(), nil
		}
		s := args[0].String()
		start, _ := args[1].AsInt()
		length, _ := args[2].AsInt()
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return sqlval.Str(""), nil
		}
		end := int(start-1) + int(length)
		if end > len(s) || end < 0 {
			end = len(s)
		}
		return sqlval.Str(s[start-1 : end]), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqlval.Null(), nil
	case "CONCAT":
		var b strings.Builder
		for _, a := range args {
			if !a.IsNull() {
				b.WriteString(a.String())
			}
		}
		return sqlval.Str(b.String()), nil
	default:
		return sqlval.Null(), fmt.Errorf("sqlengine: unknown function %s", x.Name)
	}
}

// hasAggregate reports whether the query's projection, HAVING or ORDER BY
// contains an aggregate call at the current query level (subqueries are
// their own level).
func hasAggregate(sel *sqlparser.SelectStmt) bool {
	found := false
	check := func(e sqlparser.Expr) {
		walkShallow(e, func(x sqlparser.Expr) {
			if fc, ok := x.(*sqlparser.FuncCall); ok && aggregateFuncs[fc.Name] {
				found = true
			}
		})
	}
	for _, it := range sel.Items {
		check(it.Expr)
	}
	check(sel.Having)
	for _, o := range sel.OrderBy {
		check(o.Expr)
	}
	return found
}

// walkShallow visits expressions without descending into subqueries.
func walkShallow(e sqlparser.Expr, fn func(sqlparser.Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		walkShallow(x.L, fn)
		walkShallow(x.R, fn)
	case *sqlparser.UnaryExpr:
		walkShallow(x.X, fn)
	case *sqlparser.FuncCall:
		for _, a := range x.Args {
			walkShallow(a, fn)
		}
	case *sqlparser.InExpr:
		walkShallow(x.X, fn)
		for _, a := range x.List {
			walkShallow(a, fn)
		}
	case *sqlparser.BetweenExpr:
		walkShallow(x.X, fn)
		walkShallow(x.Lo, fn)
		walkShallow(x.Hi, fn)
	case *sqlparser.IsNullExpr:
		walkShallow(x.X, fn)
	case *sqlparser.LikeExpr:
		walkShallow(x.X, fn)
		walkShallow(x.Pattern, fn)
	}
}

// collectAggregates gathers the distinct aggregate calls in the query.
func collectAggregates(sel *sqlparser.SelectStmt) []*sqlparser.FuncCall {
	var aggs []*sqlparser.FuncCall
	seen := map[*sqlparser.FuncCall]bool{}
	collect := func(e sqlparser.Expr) {
		walkShallow(e, func(x sqlparser.Expr) {
			if fc, ok := x.(*sqlparser.FuncCall); ok && aggregateFuncs[fc.Name] && !seen[fc] {
				seen[fc] = true
				aggs = append(aggs, fc)
			}
		})
	}
	for _, it := range sel.Items {
		collect(it.Expr)
	}
	collect(sel.Having)
	for _, o := range sel.OrderBy {
		collect(o.Expr)
	}
	return aggs
}

// execGrouped evaluates a grouped (or implicitly aggregated) SELECT.
func execGrouped(e *env, sel *sqlparser.SelectStmt, inputs [][]schema.Row) (*Result, error) {
	aggs := collectAggregates(sel)

	type group struct {
		rep  []schema.Row // representative input row
		rows [][]schema.Row
	}
	groups := map[string]*group{}
	var order []string
	for _, in := range inputs {
		e.current = in
		key := ""
		for _, g := range sel.GroupBy {
			v, err := evalExpr(e, g)
			if err != nil {
				return nil, err
			}
			key += v.GroupKey() + "\x00"
		}
		grp, ok := groups[key]
		if !ok {
			grp = &group{rep: in}
			groups[key] = grp
			order = append(order, key)
		}
		grp.rows = append(grp.rows, in)
	}
	// Implicit single group for aggregate-only queries, even with no rows.
	if len(sel.GroupBy) == 0 && len(order) == 0 {
		groups[""] = &group{rep: nil}
		order = append(order, "")
	}

	cols, items, err := expandItems(e, sel)
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: cols}
	var outs []rowWithKeys
	for _, key := range order {
		grp := groups[key]
		aggVals := make(map[*sqlparser.FuncCall]sqlval.Value, len(aggs))
		for _, agg := range aggs {
			v, err := computeAggregate(e, agg, grp.rows)
			if err != nil {
				return nil, err
			}
			aggVals[agg] = v
		}
		e.current = grp.rep
		e.aggs = aggVals
		if sel.Having != nil {
			hv, err := evalExpr(e, sel.Having)
			if err != nil {
				return nil, err
			}
			if !hv.Truthy() {
				e.aggs = nil
				continue
			}
		}
		vals := make([]sqlval.Value, len(items))
		for i, it := range items {
			v, err := evalExpr(e, it)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		keys, err := orderKeys(e, sel, cols, vals)
		if err != nil {
			return nil, err
		}
		e.aggs = nil
		outs = append(outs, rowWithKeys{vals: vals, keys: keys})
	}
	return finishResult(sel, res, outs)
}

// computeAggregate evaluates one aggregate over a group's input rows.
func computeAggregate(e *env, agg *sqlparser.FuncCall, rows [][]schema.Row) (sqlval.Value, error) {
	var vals []sqlval.Value
	if agg.Star {
		return sqlval.Int(int64(len(rows))), nil
	}
	if len(agg.Args) != 1 {
		return sqlval.Null(), fmt.Errorf("sqlengine: %s expects one argument", agg.Name)
	}
	saved := e.current
	defer func() { e.current = saved }()
	seen := map[string]bool{}
	for _, in := range rows {
		e.current = in
		v, err := evalExpr(e, agg.Args[0])
		if err != nil {
			return sqlval.Null(), err
		}
		if v.IsNull() {
			continue
		}
		if agg.Distinct {
			k := v.GroupKey()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch agg.Name {
	case "COUNT":
		return sqlval.Int(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return sqlval.Null(), nil
		}
		sum := sqlval.Value(vals[0])
		var err error
		for _, v := range vals[1:] {
			sum, err = sqlval.Arith(sqlval.OpAdd, sum, v)
			if err != nil {
				return sqlval.Null(), err
			}
		}
		if agg.Name == "SUM" {
			return sum, nil
		}
		return sqlval.Arith(sqlval.OpDiv, sum, sqlval.Float(float64(len(vals))))
	case "MIN", "MAX":
		if len(vals) == 0 {
			return sqlval.Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, ok := sqlval.Compare(v, best)
			if !ok {
				continue
			}
			if agg.Name == "MIN" && c < 0 || agg.Name == "MAX" && c > 0 {
				best = v
			}
		}
		return best, nil
	default:
		return sqlval.Null(), fmt.Errorf("sqlengine: unknown aggregate %s", agg.Name)
	}
}
