package dol

import (
	"fmt"
	"strconv"

	"msql/internal/schema"
	"msql/internal/sqlparser"
)

// Parse parses a DOL program.
func Parse(src string) (*Program, error) {
	p, err := sqlparser.NewParser(src)
	if err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("DOLBEGIN"); err != nil {
		return nil, err
	}
	prog := &Program{}
	for {
		p.SkipSemicolons()
		if p.AcceptKeyword("DOLEND") {
			p.SkipSemicolons()
			if !p.AtEOF() {
				return nil, fmt.Errorf("dol: trailing input after DOLEND: %s", p.Peek())
			}
			return prog, nil
		}
		if p.AtEOF() {
			return nil, fmt.Errorf("dol: missing DOLEND")
		}
		s, err := parseStmt(p)
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, s)
	}
}

func parseStmt(p *sqlparser.Parser) (Stmt, error) {
	switch {
	case p.AcceptKeyword("OPEN"):
		db, err := p.Ident()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("AT"); err != nil {
			return nil, err
		}
		t := p.Peek()
		if t.Kind != sqlparser.TokIdent && t.Kind != sqlparser.TokString {
			return nil, fmt.Errorf("dol: expected site, found %s", t)
		}
		site := p.Next().Text
		if err := p.ExpectKeyword("AS"); err != nil {
			return nil, err
		}
		alias, err := p.Ident()
		if err != nil {
			return nil, err
		}
		return &OpenStmt{Database: db, Site: site, Alias: alias}, nil

	case p.AcceptKeyword("TASK"):
		return parseTask(p)

	case p.AcceptKeyword("SHIP"):
		task, err := p.Ident()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("TO"); err != nil {
			return nil, err
		}
		to, err := p.Ident()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.Ident()
		if err != nil {
			return nil, err
		}
		ship := &ShipStmt{Task: task, To: to, Table: name}
		if err := p.ExpectPunct("("); err != nil {
			return nil, err
		}
		// Reuse the SQL column definition grammar via a tiny re-parse.
		for {
			colName, err := p.Ident()
			if err != nil {
				return nil, err
			}
			typeTok := p.Peek()
			if typeTok.Kind != sqlparser.TokIdent {
				return nil, fmt.Errorf("dol: expected column type, found %s", typeTok)
			}
			p.Next()
			def, err := columnDefFrom(colName, typeTok.Text, p)
			if err != nil {
				return nil, err
			}
			ship.Columns = append(ship.Columns, def)
			if !p.AcceptPunct(",") {
				break
			}
		}
		if err := p.ExpectPunct(")"); err != nil {
			return nil, err
		}
		return ship, nil

	case p.AcceptKeyword("IF"):
		cond, err := parseCond(p)
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("THEN"); err != nil {
			return nil, err
		}
		thenStmts, err := parseBlock(p)
		if err != nil {
			return nil, err
		}
		ifs := &IfStmt{Cond: cond, Then: thenStmts}
		p.SkipSemicolons()
		if p.AcceptKeyword("ELSE") {
			elseStmts, err := parseBlock(p)
			if err != nil {
				return nil, err
			}
			ifs.Else = elseStmts
		}
		return ifs, nil

	case p.AcceptKeyword("COMMIT"):
		tasks, err := identList(p)
		if err != nil {
			return nil, err
		}
		return &CommitStmt{Tasks: tasks}, nil

	case p.AcceptKeyword("ABORT"):
		tasks, err := identList(p)
		if err != nil {
			return nil, err
		}
		return &AbortStmt{Tasks: tasks}, nil

	case p.AcceptKeyword("DOLSTATUS"):
		if err := p.ExpectPunct("="); err != nil {
			return nil, err
		}
		t := p.Next()
		if t.Kind != sqlparser.TokNumber {
			return nil, fmt.Errorf("dol: expected status code, found %s", t)
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, fmt.Errorf("dol: bad status code %q", t.Text)
		}
		return &StatusStmt{Code: n}, nil

	case p.AcceptKeyword("CLOSE"):
		var aliases []string
		for p.Peek().Kind == sqlparser.TokIdent {
			aliases = append(aliases, p.Next().Text)
		}
		if len(aliases) == 0 {
			return nil, fmt.Errorf("dol: CLOSE requires at least one connection")
		}
		return &CloseStmt{Aliases: aliases}, nil

	default:
		return nil, fmt.Errorf("dol: unexpected token %s", p.Peek())
	}
}

func columnDefFrom(name, typeName string, p *sqlparser.Parser) (schema.Column, error) {
	def := schema.Column{Name: name}
	switch {
	case isType(typeName, "INT", "INTEGER", "SMALLINT", "BIGINT"):
		def.Type = kindInt
	case isType(typeName, "FLOAT", "REAL", "DOUBLE", "NUMERIC", "DECIMAL"):
		def.Type = kindFloat
	case isType(typeName, "CHAR", "VARCHAR", "TEXT", "STRING"):
		def.Type = kindString
	case isType(typeName, "BOOL", "BOOLEAN"):
		def.Type = kindBool
	default:
		return def, fmt.Errorf("dol: unsupported column type %q", typeName)
	}
	if p.AcceptPunct("(") {
		t := p.Next()
		if t.Kind != sqlparser.TokNumber {
			return def, fmt.Errorf("dol: expected width, found %s", t)
		}
		w, err := strconv.Atoi(t.Text)
		if err != nil {
			return def, err
		}
		def.Width = w
		if err := p.ExpectPunct(")"); err != nil {
			return def, err
		}
	}
	return def, nil
}

func parseTask(p *sqlparser.Parser) (*TaskStmt, error) {
	name, err := p.Ident()
	if err != nil {
		return nil, err
	}
	task := &TaskStmt{Name: name}
	if p.AcceptKeyword("NOCOMMIT") {
		task.NoCommit = true
	}
	if p.AcceptKeyword("AFTER") {
		for p.Peek().Kind == sqlparser.TokIdent && !p.PeekKeyword("FOR") {
			task.After = append(task.After, p.Next().Text)
		}
	}
	if err := p.ExpectKeyword("FOR"); err != nil {
		return nil, err
	}
	task.Conn, err = p.Ident()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectPunct("{"); err != nil {
		return nil, err
	}
	for !p.PeekPunct("}") {
		if p.AtEOF() {
			return nil, fmt.Errorf("dol: unterminated task body in %s", name)
		}
		p.SkipSemicolons()
		if p.PeekPunct("}") {
			break
		}
		stmt, err := p.ParseStatement()
		if err != nil {
			return nil, fmt.Errorf("dol: task %s body: %w", name, err)
		}
		task.Body = append(task.Body, stmt)
	}
	if err := p.ExpectPunct("}"); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("ENDTASK"); err != nil {
		return nil, err
	}
	return task, nil
}

// parseBlock parses BEGIN stmts END or a single statement.
func parseBlock(p *sqlparser.Parser) ([]Stmt, error) {
	if !p.AcceptKeyword("BEGIN") {
		s, err := parseStmt(p)
		if err != nil {
			return nil, err
		}
		return []Stmt{s}, nil
	}
	var out []Stmt
	for {
		p.SkipSemicolons()
		if p.AcceptKeyword("END") {
			return out, nil
		}
		if p.AtEOF() {
			return nil, fmt.Errorf("dol: unterminated block")
		}
		s, err := parseStmt(p)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// parseCond parses OR-level conditions.
func parseCond(p *sqlparser.Parser) (Cond, error) {
	l, err := parseCondAnd(p)
	if err != nil {
		return nil, err
	}
	for p.AcceptKeyword("OR") {
		r, err := parseCondAnd(p)
		if err != nil {
			return nil, err
		}
		l = &OrCond{L: l, R: r}
	}
	return l, nil
}

func parseCondAnd(p *sqlparser.Parser) (Cond, error) {
	l, err := parseCondPrimary(p)
	if err != nil {
		return nil, err
	}
	for p.AcceptKeyword("AND") {
		r, err := parseCondPrimary(p)
		if err != nil {
			return nil, err
		}
		l = &AndCond{L: l, R: r}
	}
	return l, nil
}

func parseCondPrimary(p *sqlparser.Parser) (Cond, error) {
	if p.AcceptKeyword("NOT") {
		x, err := parseCondPrimary(p)
		if err != nil {
			return nil, err
		}
		return &NotCond{X: x}, nil
	}
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	// Either a nested condition or task=status.
	if p.PeekPunct("(") || p.PeekKeyword("NOT") {
		c, err := parseCond(p)
		if err != nil {
			return nil, err
		}
		if err := p.ExpectPunct(")"); err != nil {
			return nil, err
		}
		return c, nil
	}
	test, err := parseStatusTest(p)
	if err != nil {
		return nil, err
	}
	cond := test
	// Allow (T1=P AND T2=C) inside one pair of parens.
	for {
		switch {
		case p.AcceptKeyword("AND"):
			r, err := parseCondInner(p)
			if err != nil {
				return nil, err
			}
			cond = &AndCond{L: cond, R: r}
		case p.AcceptKeyword("OR"):
			r, err := parseCondInner(p)
			if err != nil {
				return nil, err
			}
			cond = &OrCond{L: cond, R: r}
		default:
			if err := p.ExpectPunct(")"); err != nil {
				return nil, err
			}
			return cond, nil
		}
	}
}

// parseCondInner parses either a parenthesized condition or a bare
// task=status / task>rows test (the form used inside grouped
// parentheses).
func parseCondInner(p *sqlparser.Parser) (Cond, error) {
	if p.PeekPunct("(") || p.PeekKeyword("NOT") {
		return parseCondPrimary(p)
	}
	return parseStatusTest(p)
}

// parseStatusTest parses a bare test: task=STATUS or task>rows.
func parseStatusTest(p *sqlparser.Parser) (Cond, error) {
	task, err := p.Ident()
	if err != nil {
		return nil, err
	}
	switch {
	case p.AcceptPunct("="):
		letter, err := p.Ident()
		if err != nil {
			return nil, err
		}
		status, err := StatusFromLetter(letter)
		if err != nil {
			return nil, err
		}
		return &StatusCond{Task: task, Status: status}, nil
	case p.AcceptPunct(">"):
		t := p.Next()
		if t.Kind != sqlparser.TokNumber {
			return nil, fmt.Errorf("dol: expected row count after >, found %s", t)
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, fmt.Errorf("dol: bad row count %q", t.Text)
		}
		return &RowsCond{Task: task, MinRows: n}, nil
	default:
		return nil, fmt.Errorf("dol: expected = or > after %s, found %s", task, p.Peek())
	}
}

func identList(p *sqlparser.Parser) ([]string, error) {
	var out []string
	for {
		id, err := p.Ident()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if !p.AcceptPunct(",") {
			return out, nil
		}
	}
}
