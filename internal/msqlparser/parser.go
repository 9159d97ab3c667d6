package msqlparser

import (
	"fmt"
	"strings"

	"msql/internal/sqlparser"
)

// Parse parses a full MSQL script.
func Parse(src string) (*Script, error) {
	p, err := sqlparser.NewParser(src)
	if err != nil {
		return nil, err
	}
	script := &Script{}
	for {
		p.SkipSemicolons()
		if p.AtEOF() {
			return script, nil
		}
		s, err := parseStmt(p, false)
		if err != nil {
			return nil, err
		}
		script.Stmts = append(script.Stmts, s)
	}
}

// ParseStatement parses exactly one MSQL statement.
func ParseStatement(src string) (Stmt, error) {
	p, err := sqlparser.NewParser(src)
	if err != nil {
		return nil, err
	}
	p.SkipSemicolons()
	s, err := parseStmt(p, false)
	if err != nil {
		return nil, err
	}
	p.SkipSemicolons()
	if !p.AtEOF() {
		return nil, fmt.Errorf("msqlparser: unexpected trailing input: %s", p.Peek())
	}
	return s, nil
}

// stmtStarters terminate open-ended clause lists such as LET designators.
var stmtStarters = map[string]bool{
	"USE": true, "LET": true, "SELECT": true, "INSERT": true, "UPDATE": true,
	"DELETE": true, "CREATE": true, "DROP": true, "BEGIN": true, "END": true,
	"COMMIT": true, "ROLLBACK": true, "COMP": true, "INCORPORATE": true,
	"IMPORT": true, "EXPLAIN": true,
}

func parseStmt(p *sqlparser.Parser, inMultiTx bool) (Stmt, error) {
	t := p.Peek()
	if t.Kind != sqlparser.TokIdent {
		return nil, fmt.Errorf("msqlparser: expected statement, found %s", t)
	}
	switch strings.ToUpper(t.Text) {
	case "USE":
		return parseUse(p)
	case "LET":
		return parseLet(p)
	case "SELECT", "INSERT", "UPDATE", "DELETE":
		return parseQuery(p)
	case "EXPLAIN":
		return parseExplain(p)
	case "CREATE", "DROP":
		// Multidatabase-level definitions are handled here; plain
		// CREATE/DROP TABLE/VIEW fall through to the SQL grammar.
		if nxt := p.PeekAt(1); nxt.Kind == sqlparser.TokIdent {
			switch strings.ToUpper(nxt.Text) {
			case "MULTIDATABASE":
				return parseMultidatabase(p)
			case "MULTIVIEW":
				return parseMultiview(p)
			case "TRIGGER":
				return parseTrigger(p)
			}
		}
		return parseQuery(p)
	case "COMMIT":
		p.Next()
		p.AcceptPunct(";")
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.Next()
		p.AcceptPunct(";")
		return &RollbackStmt{}, nil
	case "BEGIN":
		if kw := p.PeekAt(1); kw.Kind == sqlparser.TokIdent && isKw(kw.Text, "MULTITRANSACTION") {
			if inMultiTx {
				return nil, fmt.Errorf("msqlparser: nested multitransactions are not allowed")
			}
			return parseMultiTx(p)
		}
		return nil, fmt.Errorf("msqlparser: expected BEGIN MULTITRANSACTION, found BEGIN %s", p.PeekAt(1))
	case "INCORPORATE":
		return parseIncorporate(p)
	case "IMPORT":
		return parseImport(p)
	default:
		return nil, fmt.Errorf("msqlparser: unsupported statement %q", t.Text)
	}
}

// parseUse handles USE [CURRENT] [(] db [alias)] [VITAL] ...
func parseUse(p *sqlparser.Parser) (*UseStmt, error) {
	if err := p.ExpectKeyword("USE"); err != nil {
		return nil, err
	}
	u := &UseStmt{}
	if p.AcceptKeyword("CURRENT") {
		u.Current = true
	}
	for {
		t := p.Peek()
		if t.Kind == sqlparser.TokPunct && t.Text == "(" {
			p.Next()
			db, err := p.Ident()
			if err != nil {
				return nil, err
			}
			alias, err := p.Ident()
			if err != nil {
				return nil, err
			}
			if err := p.ExpectPunct(")"); err != nil {
				return nil, err
			}
			e := UseEntry{Database: db, Alias: alias}
			if p.AcceptKeyword("VITAL") {
				e.Vital = true
			}
			u.Entries = append(u.Entries, e)
			continue
		}
		if t.Kind == sqlparser.TokIdent && !stmtStarters[strings.ToUpper(t.Text)] {
			db := p.Next().Text
			e := UseEntry{Database: db}
			if p.AcceptKeyword("VITAL") {
				e.Vital = true
			}
			u.Entries = append(u.Entries, e)
			continue
		}
		break
	}
	if len(u.Entries) == 0 {
		return nil, fmt.Errorf("msqlparser: USE requires at least one database")
	}
	p.AcceptPunct(";")
	return u, nil
}

// parseLet handles LET v.p.q BE a.b.c d.e.f [, v2 BE ...]
func parseLet(p *sqlparser.Parser) (*LetStmt, error) {
	if err := p.ExpectKeyword("LET"); err != nil {
		return nil, err
	}
	l := &LetStmt{}
	for {
		varPath, err := parsePath(p)
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("BE"); err != nil {
			return nil, err
		}
		b := LetBinding{Var: varPath}
		for {
			t := p.Peek()
			startsName := t.Kind == sqlparser.TokIdent && !stmtStarters[strings.ToUpper(t.Text)]
			if !startsName && !p.PeekPunct("(") {
				break
			}
			d, err := parseDesignator(p)
			if err != nil {
				return nil, err
			}
			b.Designators = append(b.Designators, d)
		}
		if len(b.Designators) == 0 {
			return nil, fmt.Errorf("msqlparser: LET %s BE requires designators", strings.Join(varPath, "."))
		}
		l.Bindings = append(l.Bindings, b)
		if !p.AcceptPunct(",") {
			break
		}
	}
	p.AcceptPunct(";")
	return l, nil
}

func parsePath(p *sqlparser.Parser) ([]string, error) {
	id, err := p.Ident()
	if err != nil {
		return nil, err
	}
	parts := []string{id}
	for p.PeekPunct(".") {
		p.Next()
		nxt, err := p.Ident()
		if err != nil {
			return nil, err
		}
		parts = append(parts, nxt)
	}
	return parts, nil
}

// parseDesignator parses one LET designator path whose components are
// names or parenthesized transformation expressions.
func parseDesignator(p *sqlparser.Parser) (Designator, error) {
	var d Designator
	part, err := parseDesignatorPart(p)
	if err != nil {
		return d, err
	}
	d.Parts = append(d.Parts, part)
	for p.PeekPunct(".") {
		p.Next()
		part, err := parseDesignatorPart(p)
		if err != nil {
			return d, err
		}
		d.Parts = append(d.Parts, part)
	}
	return d, nil
}

func parseDesignatorPart(p *sqlparser.Parser) (DesignatorPart, error) {
	if p.AcceptPunct("(") {
		e, err := p.ParseExpr()
		if err != nil {
			return DesignatorPart{}, err
		}
		if err := p.ExpectPunct(")"); err != nil {
			return DesignatorPart{}, err
		}
		return DesignatorPart{Expr: e}, nil
	}
	id, err := p.Ident()
	if err != nil {
		return DesignatorPart{}, err
	}
	return DesignatorPart{Name: id}, nil
}

// parseQuery handles a manipulation/definition statement with optional
// trailing COMP clauses.
func parseQuery(p *sqlparser.Parser) (*QueryStmt, error) {
	body, err := p.ParseStatement()
	if err != nil {
		return nil, err
	}
	q := &QueryStmt{Body: body}
	for p.AcceptKeyword("COMP") {
		db, err := p.Ident()
		if err != nil {
			return nil, err
		}
		comp, err := p.ParseStatement()
		if err != nil {
			return nil, err
		}
		q.Comps = append(q.Comps, CompClause{Database: db, Body: comp})
	}
	p.AcceptPunct(";")
	return q, nil
}

// parseExplain handles EXPLAIN [ANALYZE] [FORMAT JSON] <query>.
func parseExplain(p *sqlparser.Parser) (*ExplainStmt, error) {
	if err := p.ExpectKeyword("EXPLAIN"); err != nil {
		return nil, err
	}
	ex := &ExplainStmt{}
	if p.AcceptKeyword("ANALYZE") {
		ex.Analyze = true
	}
	if p.AcceptKeyword("FORMAT") {
		if err := p.ExpectKeyword("JSON"); err != nil {
			return nil, err
		}
		ex.JSON = true
	}
	t := p.Peek()
	if t.Kind != sqlparser.TokIdent || !(isKw(t.Text, "SELECT") || isKw(t.Text, "UPDATE") || isKw(t.Text, "DELETE")) {
		return nil, fmt.Errorf("msqlparser: EXPLAIN supports SELECT, UPDATE and DELETE, found %s", t)
	}
	q, err := parseQuery(p)
	if err != nil {
		return nil, err
	}
	ex.Query = q
	return ex, nil
}

// parseMultiTx handles BEGIN MULTITRANSACTION ... COMMIT <states> END
// MULTITRANSACTION.
func parseMultiTx(p *sqlparser.Parser) (*MultiTxStmt, error) {
	if err := p.ExpectKeyword("BEGIN"); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("MULTITRANSACTION"); err != nil {
		return nil, err
	}
	m := &MultiTxStmt{}
	for {
		p.SkipSemicolons()
		t := p.Peek()
		if t.Kind == sqlparser.TokEOF {
			return nil, fmt.Errorf("msqlparser: unterminated multitransaction")
		}
		if t.Kind == sqlparser.TokIdent && isKw(t.Text, "COMMIT") {
			break
		}
		s, err := parseStmt(p, true)
		if err != nil {
			return nil, err
		}
		m.Body = append(m.Body, s)
	}
	if err := p.ExpectKeyword("COMMIT"); err != nil {
		return nil, err
	}
	if p.AcceptKeyword("EFFECTIVE") {
		m.Effective = true
	}
	// Acceptable states: conjunctions of names; a new state starts at each
	// identifier that is not joined by AND. An optional OR or comma may
	// separate states explicitly.
	for {
		t := p.Peek()
		if t.Kind != sqlparser.TokIdent || isKw(t.Text, "END") {
			break
		}
		if isKw(t.Text, "OR") {
			p.Next()
			continue
		}
		var state []string
		name, err := p.Ident()
		if err != nil {
			return nil, err
		}
		state = append(state, name)
		for p.AcceptKeyword("AND") {
			nxt, err := p.Ident()
			if err != nil {
				return nil, err
			}
			state = append(state, nxt)
		}
		m.AcceptableStates = append(m.AcceptableStates, state)
		p.AcceptPunct(",")
	}
	if len(m.AcceptableStates) == 0 {
		return nil, fmt.Errorf("msqlparser: multitransaction COMMIT requires at least one acceptable state")
	}
	if err := p.ExpectKeyword("END"); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("MULTITRANSACTION"); err != nil {
		return nil, err
	}
	p.AcceptPunct(";")
	return m, nil
}

// parseIncorporate handles INCORPORATE SERVICE svc [SITE site]
// CONNECTMODE CONNECT|NOCONNECT COMMITMODE COMMIT|NOCOMMIT
// [CREATE COMMIT|NOCOMMIT] [INSERT ...] [DROP ...].
func parseIncorporate(p *sqlparser.Parser) (*IncorporateStmt, error) {
	if err := p.ExpectKeyword("INCORPORATE"); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("SERVICE"); err != nil {
		return nil, err
	}
	name, err := p.Ident()
	if err != nil {
		return nil, err
	}
	inc := &IncorporateStmt{Service: name, DDLCommit: map[string]bool{}}
	if p.AcceptKeyword("SITE") {
		t := p.Peek()
		switch t.Kind {
		case sqlparser.TokString, sqlparser.TokIdent:
			inc.Site = p.Next().Text
		default:
			return nil, fmt.Errorf("msqlparser: expected site address, found %s", t)
		}
	}
	if err := p.ExpectKeyword("CONNECTMODE"); err != nil {
		return nil, err
	}
	switch {
	case p.AcceptKeyword("CONNECT"):
		inc.Connect = true
	case p.AcceptKeyword("NOCONNECT"):
		inc.Connect = false
	default:
		return nil, fmt.Errorf("msqlparser: expected CONNECT or NOCONNECT, found %s", p.Peek())
	}
	if err := p.ExpectKeyword("COMMITMODE"); err != nil {
		return nil, err
	}
	switch {
	case p.AcceptKeyword("COMMIT"):
		inc.AutoCommitOnly = true
	case p.AcceptKeyword("NOCOMMIT"):
		inc.AutoCommitOnly = false
	default:
		return nil, fmt.Errorf("msqlparser: expected COMMIT or NOCOMMIT, found %s", p.Peek())
	}
	for {
		var class string
		switch {
		case p.AcceptKeyword("CREATE"):
			class = "CREATE"
		case p.AcceptKeyword("INSERT"):
			class = "INSERT"
		case p.AcceptKeyword("DROP"):
			class = "DROP"
		default:
			p.AcceptPunct(";")
			return inc, nil
		}
		switch {
		case p.AcceptKeyword("COMMIT"):
			inc.DDLCommit[class] = true
		case p.AcceptKeyword("NOCOMMIT"):
			inc.DDLCommit[class] = false
		default:
			return nil, fmt.Errorf("msqlparser: expected COMMIT or NOCOMMIT after %s, found %s", class, p.Peek())
		}
	}
}

// parseMultidatabase handles CREATE/DROP MULTIDATABASE name (members).
func parseMultidatabase(p *sqlparser.Parser) (Stmt, error) {
	drop := p.AcceptKeyword("DROP")
	if !drop {
		if err := p.ExpectKeyword("CREATE"); err != nil {
			return nil, err
		}
	}
	if err := p.ExpectKeyword("MULTIDATABASE"); err != nil {
		return nil, err
	}
	name, err := p.Ident()
	if err != nil {
		return nil, err
	}
	if drop {
		p.AcceptPunct(";")
		return &DropMultidatabaseStmt{Name: name}, nil
	}
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	var members []string
	for {
		m, err := p.Ident()
		if err != nil {
			return nil, err
		}
		members = append(members, m)
		if !p.AcceptPunct(",") {
			break
		}
	}
	if err := p.ExpectPunct(")"); err != nil {
		return nil, err
	}
	p.AcceptPunct(";")
	return &CreateMultidatabaseStmt{Name: name, Members: members}, nil
}

// parseMultiview handles CREATE MULTIVIEW name AS select / DROP MULTIVIEW.
func parseMultiview(p *sqlparser.Parser) (Stmt, error) {
	drop := p.AcceptKeyword("DROP")
	if !drop {
		if err := p.ExpectKeyword("CREATE"); err != nil {
			return nil, err
		}
	}
	if err := p.ExpectKeyword("MULTIVIEW"); err != nil {
		return nil, err
	}
	name, err := p.Ident()
	if err != nil {
		return nil, err
	}
	if drop {
		p.AcceptPunct(";")
		return &DropMultiviewStmt{Name: name}, nil
	}
	if err := p.ExpectKeyword("AS"); err != nil {
		return nil, err
	}
	body, err := p.ParseSelect()
	if err != nil {
		return nil, err
	}
	p.AcceptPunct(";")
	return &CreateMultiviewStmt{Name: name, Body: body}, nil
}

// parseTrigger handles CREATE TRIGGER name ON db AFTER event EXECUTE
// <manipulation statement> / DROP TRIGGER name.
func parseTrigger(p *sqlparser.Parser) (Stmt, error) {
	drop := p.AcceptKeyword("DROP")
	if !drop {
		if err := p.ExpectKeyword("CREATE"); err != nil {
			return nil, err
		}
	}
	if err := p.ExpectKeyword("TRIGGER"); err != nil {
		return nil, err
	}
	name, err := p.Ident()
	if err != nil {
		return nil, err
	}
	if drop {
		p.AcceptPunct(";")
		return &DropTriggerStmt{Name: name}, nil
	}
	if err := p.ExpectKeyword("ON"); err != nil {
		return nil, err
	}
	db, err := p.Ident()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("AFTER"); err != nil {
		return nil, err
	}
	event := ""
	for _, ev := range [...]string{"UPDATE", "INSERT", "DELETE", "CREATE", "DROP"} {
		if p.AcceptKeyword(ev) {
			event = ev
			break
		}
	}
	if event == "" {
		return nil, fmt.Errorf("msqlparser: expected trigger event, found %s", p.Peek())
	}
	if err := p.ExpectKeyword("EXECUTE"); err != nil {
		return nil, err
	}
	body, err := parseQuery(p)
	if err != nil {
		return nil, err
	}
	return &CreateTriggerStmt{Name: name, Database: db, Event: event, Body: body}, nil
}

// parseImport handles IMPORT DATABASE db FROM SERVICE svc
// [TABLE t [COLUMN c ...]] [VIEW v [COLUMN c ...]].
func parseImport(p *sqlparser.Parser) (*ImportStmt, error) {
	if err := p.ExpectKeyword("IMPORT"); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("DATABASE"); err != nil {
		return nil, err
	}
	db, err := p.Ident()
	if err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("SERVICE"); err != nil {
		return nil, err
	}
	svc, err := p.Ident()
	if err != nil {
		return nil, err
	}
	imp := &ImportStmt{Database: db, Service: svc}
	parseColumns := func() error {
		if !p.AcceptKeyword("COLUMN") {
			return nil
		}
		for {
			t := p.Peek()
			if t.Kind != sqlparser.TokIdent || stmtStarters[strings.ToUpper(t.Text)] ||
				isKw(t.Text, "VIEW") || isKw(t.Text, "TABLE") {
				break
			}
			imp.Columns = append(imp.Columns, p.Next().Text)
		}
		if len(imp.Columns) == 0 {
			return fmt.Errorf("msqlparser: COLUMN requires at least one column name")
		}
		return nil
	}
	switch {
	case p.AcceptKeyword("TABLE"):
		imp.Table, err = p.Ident()
		if err != nil {
			return nil, err
		}
		if err := parseColumns(); err != nil {
			return nil, err
		}
	case p.AcceptKeyword("VIEW"):
		imp.View, err = p.Ident()
		if err != nil {
			return nil, err
		}
		if err := parseColumns(); err != nil {
			return nil, err
		}
	}
	p.AcceptPunct(";")
	return imp, nil
}
