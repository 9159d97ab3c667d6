package sqlparser

import (
	"strings"
	"testing"
)

// countRefs walks a statement and counts column references.
func countRefs(t *testing.T, src string) int {
	t.Helper()
	s, err := ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	WalkExprs(s, func(e Expr) {
		if _, ok := e.(ColRef); ok {
			n++
		}
	})
	return n
}

func TestWalkExprsAcrossStatements(t *testing.T) {
	cases := []struct {
		src  string
		want int
	}{
		{"SELECT a, b FROM t WHERE c = 1", 3},
		{"INSERT INTO t (a) VALUES (b + c)", 2}, // column list is not an expression
		{"INSERT INTO t SELECT a FROM u WHERE b = 1", 2},
		{"UPDATE t SET a = b WHERE c = 1", 3},
		{"DELETE FROM t WHERE a = 1 AND b = 2", 2},
		{"CREATE VIEW v AS SELECT a FROM t WHERE b = 1", 2},
		{"SELECT a FROM t WHERE b IN (SELECT c FROM u WHERE d = 1)", 4},
		{"SELECT a FROM t WHERE b = (SELECT MAX(c) FROM u)", 3},
		{"SELECT a FROM t WHERE b BETWEEN c AND d", 4},
		{"SELECT a FROM t WHERE b IS NULL AND c LIKE d", 4},
		{"SELECT a FROM t GROUP BY b HAVING COUNT(c) > 1 ORDER BY d", 4},
		{"SELECT a FROM t UNION SELECT b FROM u WHERE c = 1", 3},
		{"SELECT -a FROM t WHERE NOT (b = 1)", 2},
	}
	for _, c := range cases {
		if got := countRefs(t, c.src); got != c.want {
			t.Errorf("WalkExprs(%q) saw %d refs, want %d", c.src, got, c.want)
		}
	}
}

func TestWalkExprsDDLIsEmpty(t *testing.T) {
	for _, src := range []string{
		"CREATE TABLE t (a INTEGER)",
		"DROP TABLE t",
		"CREATE DATABASE d",
		"BEGIN", "COMMIT", "ROLLBACK",
	} {
		if got := countRefs(t, src); got != 0 {
			t.Errorf("WalkExprs(%q) saw %d refs, want 0", src, got)
		}
	}
}

func TestCloneStatementIsDeep(t *testing.T) {
	src := "UPDATE t SET a = b + 1 WHERE c = (SELECT MAX(d) FROM u)"
	s1, err := ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	s2 := CloneStatement(s1)
	// Mutate the clone; the original must not change.
	s2.(*UpdateStmt).Table = Name("other")
	s2.(*UpdateStmt).Assigns[0].Column = ColRef{Parts: []string{"x"}}
	if Deparse(s1) != src {
		t.Fatalf("original mutated: %s", Deparse(s1))
	}
	if Deparse(s2) == src {
		t.Fatal("clone not mutated")
	}
}

func TestDeparseTypeNames(t *testing.T) {
	src := "CREATE TABLE t (a INTEGER, b FLOAT, c CHAR(8), d CHAR, e BOOLEAN)"
	s, err := ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	out := Deparse(s)
	for _, want := range []string{"a INTEGER", "b FLOAT", "c CHAR(8)", "d CHAR", "e BOOLEAN"} {
		if !strings.Contains(out, want) {
			t.Errorf("deparse missing %q: %s", want, out)
		}
	}
}

// TestSelectsVisitsEveryBlock: each block once, before the blocks nested
// in its expressions, then its UNION branches.
func TestSelectsVisitsEveryBlock(t *testing.T) {
	want := []string{
		"continental.flights continental.f838",
		"t u v w",
		"flights x united.flight",
		"t u v",
		"u v s",
		"t u",
		"u v w",
		"u v x",
	}
	for i, src := range walkerSources {
		var got []string
		Selects(mustParse(t, src), func(sel *SelectStmt) { got = append(got, sel.From[0].Name.String()) })
		if strings.Join(got, " ") != want[i] {
			t.Errorf("Selects(%q) visited %v, want %s", src, got, want[i])
		}
	}
}

// TestWalkExprStaysInBlock: a subquery is visited as a node, but its
// columns belong to its own block.
func TestWalkExprStaysInBlock(t *testing.T) {
	sel := mustParse(t, "SELECT a FROM t WHERE b = (SELECT c FROM u) AND d IN (SELECT e FROM v) AND f IN (1, g)").(*SelectStmt)
	var cols []string
	subqueries := 0
	WalkExpr(sel.Where, func(e Expr) {
		switch x := e.(type) {
		case ColRef:
			cols = append(cols, x.Name())
		case *SubqueryExpr:
			subqueries++
		}
	})
	if strings.Join(cols, " ") != "b d f g" || subqueries != 1 {
		t.Fatalf("WalkExpr saw columns %v and %d subqueries, want b d f g and 1", cols, subqueries)
	}
}

func TestConjunctsAndAnd(t *testing.T) {
	if Conjuncts(nil) != nil || And(nil) != nil {
		t.Fatal("a nil condition has no conjuncts, and no conjuncts join to nil")
	}
	sel := mustParse(t, "SELECT a FROM t WHERE a = 1 AND (b = 2 OR c = 3) AND d IN (SELECT e FROM u WHERE e = 1 AND f = 2)").(*SelectStmt)
	cs := Conjuncts(sel.Where)
	if len(cs) != 3 {
		t.Fatalf("%d conjuncts, want 3", len(cs))
	}
	before := Deparse(sel)
	sel.Where = And(cs)
	if after := Deparse(sel); after != before {
		t.Fatalf("And(Conjuncts(w)) deparses to %s, want %s", after, before)
	}
}
