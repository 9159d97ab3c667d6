package sqlparser

import (
	"fmt"
	"strconv"
	"strings"

	"msql/internal/schema"
	"msql/internal/sqlval"
)

// Parser is a recursive-descent parser over a token stream. Its primitive
// token operations are exported so that the MSQL front end can parse its
// own top-level constructs and delegate embedded query bodies back here.
type Parser struct {
	toks []Token
	pos  int
}

// NewParser tokenizes src and returns a parser positioned at the start.
func NewParser(src string) (*Parser, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// Peek returns the current token without consuming it.
func (p *Parser) Peek() Token {
	if p.pos >= len(p.toks) {
		return Token{Kind: TokEOF}
	}
	return p.toks[p.pos]
}

// PeekAt returns the token n positions ahead of the cursor.
func (p *Parser) PeekAt(n int) Token {
	if p.pos+n >= len(p.toks) {
		return Token{Kind: TokEOF}
	}
	return p.toks[p.pos+n]
}

// Next consumes and returns the current token.
func (p *Parser) Next() Token {
	t := p.Peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

// AtEOF reports whether all tokens are consumed.
func (p *Parser) AtEOF() bool { return p.Peek().Kind == TokEOF }

// PeekKeyword reports whether the current token is the given keyword
// (case-insensitive identifier match).
func (p *Parser) PeekKeyword(kw string) bool {
	t := p.Peek()
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}

// AcceptKeyword consumes the keyword if present and reports whether it did.
func (p *Parser) AcceptKeyword(kw string) bool {
	if p.PeekKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

// ExpectKeyword consumes the keyword or fails.
func (p *Parser) ExpectKeyword(kw string) error {
	if !p.AcceptKeyword(kw) {
		return fmt.Errorf("expected %s, found %s", strings.ToUpper(kw), p.Peek())
	}
	return nil
}

// PeekPunct reports whether the current token is the punctuation s.
func (p *Parser) PeekPunct(s string) bool {
	t := p.Peek()
	return t.Kind == TokPunct && t.Text == s
}

// AcceptPunct consumes the punctuation if present.
func (p *Parser) AcceptPunct(s string) bool {
	if p.PeekPunct(s) {
		p.pos++
		return true
	}
	return false
}

// ExpectPunct consumes the punctuation or fails.
func (p *Parser) ExpectPunct(s string) error {
	if !p.AcceptPunct(s) {
		return fmt.Errorf("expected %q, found %s", s, p.Peek())
	}
	return nil
}

// Ident consumes an identifier token (that is not necessarily a keyword)
// and returns its text.
func (p *Parser) Ident() (string, error) {
	t := p.Peek()
	if t.Kind != TokIdent {
		return "", fmt.Errorf("expected identifier, found %s", t)
	}
	p.pos++
	return t.Text, nil
}

// SkipSemicolons consumes any run of ';' separators.
func (p *Parser) SkipSemicolons() {
	for p.AcceptPunct(";") {
	}
}

// reservedAfterTable are keywords that terminate clause lists, so a bare
// identifier position must not swallow them as aliases.
var reservedAfterTable = map[string]bool{
	"WHERE": true, "GROUP": true, "HAVING": true, "ORDER": true, "LIMIT": true,
	"SET": true, "VALUES": true, "FROM": true, "AND": true, "OR": true,
	"ON": true, "UNION": true, "COMP": true, "VITAL": true, "INTO": true,
	"SELECT": true, "INSERT": true, "UPDATE": true, "DELETE": true, "USE": true,
	"LET": true, "BEGIN": true, "END": true, "COMMIT": true, "ROLLBACK": true,
	"EXPLAIN": true,
	"DESC":    true, "ASC": true, "AS": true, "NOT": true, "IN": true,
	"BETWEEN": true, "LIKE": true, "IS": true,
}

// ParseStatement parses one SQL statement. The trailing ';', if present,
// is consumed.
func ParseStatement(src string) (Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	s, err := p.ParseStatement()
	if err != nil {
		return nil, err
	}
	p.SkipSemicolons()
	if !p.AtEOF() {
		return nil, fmt.Errorf("unexpected trailing input: %s", p.Peek())
	}
	return s, nil
}

// ParseScript parses a ';'-separated sequence of statements.
func ParseScript(src string) ([]Statement, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var out []Statement
	for {
		p.SkipSemicolons()
		if p.AtEOF() {
			return out, nil
		}
		s, err := p.ParseStatement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

// ParseStatement parses one statement at the cursor, consuming an optional
// trailing ';'.
func (p *Parser) ParseStatement() (Statement, error) {
	t := p.Peek()
	if t.Kind != TokIdent {
		return nil, fmt.Errorf("expected statement, found %s", t)
	}
	var s Statement
	var err error
	switch strings.ToUpper(t.Text) {
	case "SELECT":
		s, err = p.ParseSelect()
	case "INSERT":
		s, err = p.parseInsert()
	case "UPDATE":
		s, err = p.parseUpdate()
	case "DELETE":
		s, err = p.parseDelete()
	case "CREATE":
		s, err = p.parseCreate()
	case "DROP":
		s, err = p.parseDrop()
	case "BEGIN":
		p.Next()
		p.AcceptKeyword("WORK")
		p.AcceptKeyword("TRANSACTION")
		s = &BeginStmt{}
	case "COMMIT":
		p.Next()
		p.AcceptKeyword("WORK")
		s = &CommitStmt{}
	case "ROLLBACK":
		p.Next()
		p.AcceptKeyword("WORK")
		s = &RollbackStmt{}
	case "EXPLAIN":
		s, err = p.parseExplain()
	default:
		return nil, fmt.Errorf("unsupported statement %q", t.Text)
	}
	if err != nil {
		return nil, err
	}
	p.AcceptPunct(";")
	return s, nil
}

// parseExplain parses EXPLAIN [ANALYZE] [FORMAT JSON] <stmt>.
func (p *Parser) parseExplain() (*ExplainStmt, error) {
	if err := p.ExpectKeyword("EXPLAIN"); err != nil {
		return nil, err
	}
	e := &ExplainStmt{}
	e.Analyze = p.AcceptKeyword("ANALYZE")
	if p.AcceptKeyword("FORMAT") {
		if err := p.ExpectKeyword("JSON"); err != nil {
			return nil, err
		}
		e.JSON = true
	}
	target, err := p.ParseStatement()
	if err != nil {
		return nil, err
	}
	if _, nested := target.(*ExplainStmt); nested {
		return nil, fmt.Errorf("EXPLAIN of EXPLAIN is not supported")
	}
	e.Target = target
	return e, nil
}

// ParseSelect parses a SELECT statement at the cursor.
func (p *Parser) ParseSelect() (*SelectStmt, error) {
	if err := p.ExpectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{Limit: -1}
	if p.AcceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.AcceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.AcceptPunct(",") {
			break
		}
	}
	if p.AcceptKeyword("FROM") {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if !p.AcceptPunct(",") {
				break
			}
		}
	}
	if p.AcceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.AcceptKeyword("GROUP") {
		if err := p.ExpectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.AcceptPunct(",") {
				break
			}
		}
	}
	if p.AcceptKeyword("HAVING") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.AcceptKeyword("ORDER") {
		if err := p.ExpectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.AcceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.AcceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.AcceptPunct(",") {
				break
			}
		}
	}
	if p.AcceptKeyword("LIMIT") {
		t := p.Next()
		if t.Kind != TokNumber {
			return nil, fmt.Errorf("expected LIMIT count, found %s", t)
		}
		n, err := strconv.Atoi(t.Text)
		if err != nil {
			return nil, fmt.Errorf("bad LIMIT count %q", t.Text)
		}
		sel.Limit = n
	}
	for p.AcceptKeyword("UNION") {
		all := p.AcceptKeyword("ALL")
		part, err := p.ParseSelect()
		if err != nil {
			return nil, err
		}
		// Flatten: nested unions hang off the outermost select.
		sel.Unions = append(sel.Unions, UnionPart{All: all, Select: part})
		sel.Unions = append(sel.Unions, part.Unions...)
		part.Unions = nil
	}
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.AcceptPunct("*") {
		return SelectItem{Star: true}, nil
	}
	// q.* form
	if p.Peek().Kind == TokIdent && p.PeekAt(1).Kind == TokPunct && p.PeekAt(1).Text == "." &&
		p.PeekAt(2).Kind == TokPunct && p.PeekAt(2).Text == "*" {
		q := p.Next().Text
		p.Next()
		p.Next()
		return SelectItem{Star: true, Qualifier: q}, nil
	}
	e, err := p.ParseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.AcceptKeyword("AS") {
		a, err := p.Ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = a
	} else if t := p.Peek(); t.Kind == TokIdent && !reservedAfterTable[strings.ToUpper(t.Text)] {
		item.Alias = p.Next().Text
	}
	return item, nil
}

func (p *Parser) parseTableRef() (TableRef, error) {
	name, err := p.ParseObjectName()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: name}
	if p.AcceptKeyword("AS") {
		a, err := p.Ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a
	} else if t := p.Peek(); t.Kind == TokIdent && !reservedAfterTable[strings.ToUpper(t.Text)] {
		ref.Alias = p.Next().Text
	}
	return ref, nil
}

// ParseObjectName parses a dotted identifier path.
func (p *Parser) ParseObjectName() (ObjectName, error) {
	var parts []string
	id, err := p.Ident()
	if err != nil {
		return ObjectName{}, err
	}
	parts = append(parts, id)
	for p.PeekPunct(".") && p.PeekAt(1).Kind == TokIdent {
		p.Next()
		parts = append(parts, p.Next().Text)
	}
	return ObjectName{Parts: parts}, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	if err := p.ExpectKeyword("INSERT"); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("INTO"); err != nil {
		return nil, err
	}
	name, err := p.ParseObjectName()
	if err != nil {
		return nil, err
	}
	ins := &InsertStmt{Table: name}
	if p.AcceptPunct("(") {
		for {
			c, err := p.Ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, c)
			if !p.AcceptPunct(",") {
				break
			}
		}
		if err := p.ExpectPunct(")"); err != nil {
			return nil, err
		}
	}
	switch {
	case p.AcceptKeyword("VALUES"):
		for {
			if err := p.ExpectPunct("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.ParseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.AcceptPunct(",") {
					break
				}
			}
			if err := p.ExpectPunct(")"); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.AcceptPunct(",") {
				break
			}
		}
	case p.PeekKeyword("SELECT"):
		q, err := p.ParseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q
	default:
		return nil, fmt.Errorf("expected VALUES or SELECT in INSERT, found %s", p.Peek())
	}
	return ins, nil
}

func (p *Parser) parseUpdate() (Statement, error) {
	if err := p.ExpectKeyword("UPDATE"); err != nil {
		return nil, err
	}
	name, err := p.ParseObjectName()
	if err != nil {
		return nil, err
	}
	upd := &UpdateStmt{Table: name}
	if err := p.ExpectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		upd.Assigns = append(upd.Assigns, Assign{Column: col, Expr: e})
		if !p.AcceptPunct(",") {
			break
		}
	}
	if p.AcceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		upd.Where = e
	}
	return upd, nil
}

func (p *Parser) parseDelete() (Statement, error) {
	if err := p.ExpectKeyword("DELETE"); err != nil {
		return nil, err
	}
	if err := p.ExpectKeyword("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ParseObjectName()
	if err != nil {
		return nil, err
	}
	del := &DeleteStmt{Table: name}
	if p.AcceptKeyword("WHERE") {
		e, err := p.ParseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = e
	}
	return del, nil
}

func (p *Parser) parseCreate() (Statement, error) {
	if err := p.ExpectKeyword("CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.AcceptKeyword("DATABASE"):
		db, err := p.Ident()
		if err != nil {
			return nil, err
		}
		return &CreateDatabaseStmt{Database: db}, nil
	case p.PeekKeyword("TEMPORARY"), p.PeekKeyword("TABLE"):
		temp := p.AcceptKeyword("TEMPORARY")
		if err := p.ExpectKeyword("TABLE"); err != nil {
			return nil, err
		}
		name, err := p.ParseObjectName()
		if err != nil {
			return nil, err
		}
		ct := &CreateTableStmt{Table: name, Temporary: temp}
		if err := p.ExpectPunct("("); err != nil {
			return nil, err
		}
		for {
			// Table-level PRIMARY KEY (a, b) marks the named columns.
			if p.AcceptKeyword("PRIMARY") {
				if err := p.ExpectKeyword("KEY"); err != nil {
					return nil, err
				}
				if err := p.ExpectPunct("("); err != nil {
					return nil, err
				}
				for {
					kc, err := p.Ident()
					if err != nil {
						return nil, err
					}
					found := false
					for i := range ct.Columns {
						if ct.Columns[i].Name == kc {
							ct.Columns[i].Key = true
							found = true
							break
						}
					}
					if !found {
						return nil, fmt.Errorf("PRIMARY KEY names unknown column %q", kc)
					}
					if !p.AcceptPunct(",") {
						break
					}
				}
				if err := p.ExpectPunct(")"); err != nil {
					return nil, err
				}
			} else {
				col, err := p.parseColumnDef()
				if err != nil {
					return nil, err
				}
				ct.Columns = append(ct.Columns, col)
			}
			if !p.AcceptPunct(",") {
				break
			}
		}
		if err := p.ExpectPunct(")"); err != nil {
			return nil, err
		}
		return ct, nil
	case p.AcceptKeyword("VIEW"):
		name, err := p.ParseObjectName()
		if err != nil {
			return nil, err
		}
		if err := p.ExpectKeyword("AS"); err != nil {
			return nil, err
		}
		q, err := p.ParseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateViewStmt{View: name, Query: q}, nil
	default:
		return nil, fmt.Errorf("expected DATABASE, TABLE, TEMPORARY TABLE or VIEW after CREATE, found %s", p.Peek())
	}
}

func (p *Parser) parseColumnDef() (schema.Column, error) {
	name, err := p.Ident()
	if err != nil {
		return schema.Column{}, err
	}
	t := p.Peek()
	if t.Kind != TokIdent {
		return schema.Column{}, fmt.Errorf("expected column type, found %s", t)
	}
	p.Next()
	def := schema.Column{Name: name}
	switch strings.ToUpper(t.Text) {
	case "INT", "INTEGER", "SMALLINT", "BIGINT":
		def.Type = sqlval.KindInt
	case "FLOAT", "REAL", "DOUBLE", "NUMERIC", "DECIMAL":
		def.Type = sqlval.KindFloat
	case "CHAR", "VARCHAR", "TEXT", "STRING":
		def.Type = sqlval.KindString
	case "BOOL", "BOOLEAN":
		def.Type = sqlval.KindBool
	default:
		return schema.Column{}, fmt.Errorf("unsupported column type %q", t.Text)
	}
	if p.AcceptPunct("(") {
		n := p.Next()
		if n.Kind != TokNumber {
			return schema.Column{}, fmt.Errorf("expected width, found %s", n)
		}
		w, err := strconv.Atoi(n.Text)
		if err != nil {
			return schema.Column{}, fmt.Errorf("bad width %q", n.Text)
		}
		def.Width = w
		if p.AcceptPunct(",") { // NUMERIC(p, s): ignore the scale
			if sc := p.Next(); sc.Kind != TokNumber {
				return schema.Column{}, fmt.Errorf("expected scale, found %s", sc)
			}
		}
		if err := p.ExpectPunct(")"); err != nil {
			return schema.Column{}, err
		}
	}
	if p.AcceptKeyword("PRIMARY") {
		if err := p.ExpectKeyword("KEY"); err != nil {
			return schema.Column{}, err
		}
		def.Key = true
	}
	return def, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	if err := p.ExpectKeyword("DROP"); err != nil {
		return nil, err
	}
	switch {
	case p.AcceptKeyword("DATABASE"):
		db, err := p.Ident()
		if err != nil {
			return nil, err
		}
		return &DropDatabaseStmt{Database: db}, nil
	case p.AcceptKeyword("TABLE"):
		var ifExists bool
		if p.AcceptKeyword("IF") {
			if err := p.ExpectKeyword("EXISTS"); err != nil {
				return nil, err
			}
			ifExists = true
		}
		name, err := p.ParseObjectName()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Table: name, IfExists: ifExists}, nil
	case p.AcceptKeyword("VIEW"):
		name, err := p.ParseObjectName()
		if err != nil {
			return nil, err
		}
		return &DropViewStmt{View: name}, nil
	default:
		return nil, fmt.Errorf("expected DATABASE, TABLE or VIEW after DROP, found %s", p.Peek())
	}
}

// ParseExpr parses an expression with standard SQL precedence:
// OR < AND < NOT < comparison/IN/LIKE/BETWEEN/IS < additive <
// multiplicative < unary < primary.
func (p *Parser) ParseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.AcceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.PeekKeyword("AND") {
		// BETWEEN lo AND hi is handled inside parseComparison; here AND is
		// only a boolean conjunction.
		p.Next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.AcceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *Parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// Postfix predicates.
	for {
		not := false
		if p.PeekKeyword("NOT") {
			nxt := p.PeekAt(1)
			if nxt.Kind == TokIdent {
				switch strings.ToUpper(nxt.Text) {
				case "IN", "LIKE", "BETWEEN":
					p.Next()
					not = true
				}
			}
			if !not {
				break
			}
		}
		switch {
		case p.AcceptKeyword("IN"):
			return p.parseInTail(l, not)
		case p.AcceptKeyword("LIKE"):
			pat, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &LikeExpr{X: l, Pattern: pat, Not: not}
			continue
		case p.AcceptKeyword("BETWEEN"):
			lo, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if err := p.ExpectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			l = &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: not}
			continue
		case p.AcceptKeyword("IS"):
			isNot := p.AcceptKeyword("NOT")
			if err := p.ExpectKeyword("NULL"); err != nil {
				return nil, err
			}
			l = &IsNullExpr{X: l, Not: isNot}
			continue
		}
		break
	}
	for _, op := range [...]string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.PeekPunct(op) {
			p.Next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			o := op
			if o == "!=" {
				o = "<>"
			}
			return &BinaryExpr{Op: o, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *Parser) parseInTail(l Expr, not bool) (Expr, error) {
	if err := p.ExpectPunct("("); err != nil {
		return nil, err
	}
	in := &InExpr{X: l, Not: not}
	if p.PeekKeyword("SELECT") {
		q, err := p.ParseSelect()
		if err != nil {
			return nil, err
		}
		in.Query = q
	} else {
		for {
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			in.List = append(in.List, e)
			if !p.AcceptPunct(",") {
				break
			}
		}
	}
	if err := p.ExpectPunct(")"); err != nil {
		return nil, err
	}
	return in, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.AcceptPunct("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "+", L: l, R: r}
		case p.AcceptPunct("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "-", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.AcceptPunct("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "*", L: l, R: r}
		case p.AcceptPunct("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: "/", L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.AcceptPunct("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	p.AcceptPunct("+")
	return p.parsePrimary()
}

// exprReserved are keywords that cannot begin an expression primary. The
// set is deliberately small: the paper's example schemas use column names
// such as "from", "to", "day" and "client", which remain usable in SET
// clauses (parsed via parseColRef directly) and as result columns.
var exprReserved = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true,
	"HAVING": true, "ORDER": true, "VALUES": true, "INSERT": true,
	"UPDATE": true, "DELETE": true, "CREATE": true, "DROP": true,
	"UNION": true, "LIMIT": true,
}

var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// scalar built-ins supported by the engine.
var scalarNames = map[string]bool{
	"UPPER": true, "LOWER": true, "LENGTH": true, "ABS": true, "ROUND": true,
	"SUBSTR": true, "COALESCE": true, "CONCAT": true,
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.Peek()
	switch t.Kind {
	case TokNumber:
		p.Next()
		if strings.ContainsAny(t.Text, ".eE") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("bad number %q", t.Text)
			}
			return &Literal{Val: sqlval.Float(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.Text, 64)
			if ferr != nil {
				return nil, fmt.Errorf("bad number %q", t.Text)
			}
			return &Literal{Val: sqlval.Float(f)}, nil
		}
		return &Literal{Val: sqlval.Int(i)}, nil
	case TokString:
		p.Next()
		return &Literal{Val: sqlval.Str(t.Text)}, nil
	case TokPunct:
		switch t.Text {
		case "(":
			p.Next()
			if p.PeekKeyword("SELECT") {
				q, err := p.ParseSelect()
				if err != nil {
					return nil, err
				}
				if err := p.ExpectPunct(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Query: q}, nil
			}
			e, err := p.ParseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.ExpectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		case "~":
			p.Next()
			c, err := p.parseColRef()
			if err != nil {
				return nil, err
			}
			c.Optional = true
			return c, nil
		}
	case TokIdent:
		up := strings.ToUpper(t.Text)
		switch up {
		case "NULL":
			p.Next()
			return &Literal{Val: sqlval.Null()}, nil
		case "TRUE":
			p.Next()
			return &Literal{Val: sqlval.Bool(true)}, nil
		case "FALSE":
			p.Next()
			return &Literal{Val: sqlval.Bool(false)}, nil
		}
		if exprReserved[up] {
			return nil, fmt.Errorf("unexpected keyword %s in expression", up)
		}
		if (aggregateNames[up] || scalarNames[up]) && p.PeekAt(1).Kind == TokPunct && p.PeekAt(1).Text == "(" {
			p.Next()
			p.Next()
			fc := &FuncCall{Name: up}
			if p.AcceptPunct("*") {
				fc.Star = true
			} else {
				if p.AcceptKeyword("DISTINCT") {
					fc.Distinct = true
				}
				if !p.PeekPunct(")") {
					for {
						a, err := p.ParseExpr()
						if err != nil {
							return nil, err
						}
						fc.Args = append(fc.Args, a)
						if !p.AcceptPunct(",") {
							break
						}
					}
				}
			}
			if err := p.ExpectPunct(")"); err != nil {
				return nil, err
			}
			return fc, nil
		}
		return p.parseColRef()
	}
	return nil, fmt.Errorf("unexpected token %s in expression", t)
}

func (p *Parser) parseColRef() (ColRef, error) {
	optional := p.AcceptPunct("~")
	id, err := p.Ident()
	if err != nil {
		return ColRef{}, err
	}
	parts := []string{id}
	for p.PeekPunct(".") && p.PeekAt(1).Kind == TokIdent {
		p.Next()
		parts = append(parts, p.Next().Text)
	}
	return ColRef{Parts: parts, Optional: optional}, nil
}
