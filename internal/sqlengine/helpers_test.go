package sqlengine_test

import (
	"testing"

	"msql/internal/sqlparser"
)

func mustParseStmt(t *testing.T, src string) sqlparser.Statement {
	t.Helper()
	s, err := sqlparser.ParseStatement(src)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func deparse(s sqlparser.Statement) string { return sqlparser.Deparse(s) }
