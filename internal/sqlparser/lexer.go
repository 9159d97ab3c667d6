// Package sqlparser implements the lexer, AST, recursive-descent parser and
// deparser for the SQL subset executed by the local engines, extended with
// the MSQL identifier forms the paper relies on: multiple identifiers
// containing the wildcard '%' (flight%, %code, rate%) and optional columns
// prefixed with '~' (~rate). The MSQL front end (internal/msqlparser)
// reuses this package's lexer and parser for embedded query bodies.
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF    TokenKind = iota
	TokIdent            // identifier, possibly containing '%' wildcards
	TokNumber           // integer or float literal: digits[.digits][eE[+-]digits]
	TokString           // single-quoted string literal
	TokPunct            // operators and punctuation
)

// Token is one lexical token. Text preserves the original spelling except
// that string literals are unquoted and unescaped.
type Token struct {
	Kind TokenKind
	Text string
	Pos  int // byte offset in the source
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return t.Text
	}
}

// Lexer turns MSQL/SQL source text into tokens. Identifiers may contain
// '%' anywhere (leading, trailing, or interior) per the MSQL multiple
// identifier rules; keywords are recognized case-insensitively by the
// parser, not the lexer.
type Lexer struct {
	src string
	pos int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src} }

func isIdentStart(r byte) bool {
	return r == '_' || r == '%' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z'
}

func isIdentPart(r byte) bool {
	return isIdentStart(r) || '0' <= r && r <= '9' || r == '$' || r == '#'
}

func isDigit(r byte) bool { return '0' <= r && r <= '9' }

// Next scans and returns the next token.
func (l *Lexer) Next() (Token, error) {
	l.skipSpaceAndComments()
	start := l.pos
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: start}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Pos: start}, nil
	case isDigit(c) || c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]):
		seenDot := false
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if isDigit(ch) {
				l.pos++
				continue
			}
			if ch == '.' && !seenDot && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1]) {
				seenDot = true
				l.pos++
				continue
			}
			break
		}
		// Exponent: [eE][+-]digits, as strconv prints floats below 1e-4
		// and from 1e21 (sqlval.Value.String). Without a digit after it
		// the 'e' starts the next token.
		if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
			p := l.pos + 1
			if p < len(l.src) && (l.src[p] == '+' || l.src[p] == '-') {
				p++
			}
			if p < len(l.src) && isDigit(l.src[p]) {
				for p < len(l.src) && isDigit(l.src[p]) {
					p++
				}
				l.pos = p
			}
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Pos: start}, nil
	case c == '\'' || c == '"':
		quote := c
		l.pos++
		var b strings.Builder
		for l.pos < len(l.src) {
			ch := l.src[l.pos]
			if ch == quote {
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
					b.WriteByte(quote)
					l.pos += 2
					continue
				}
				l.pos++
				return Token{Kind: TokString, Text: b.String(), Pos: start}, nil
			}
			b.WriteByte(ch)
			l.pos++
		}
		return Token{}, fmt.Errorf("unterminated string literal at offset %d", start)
	default:
		// Multi-character operators first.
		for _, op := range [...]string{"<>", "!=", "<=", ">="} {
			if strings.HasPrefix(l.src[l.pos:], op) {
				l.pos += len(op)
				return Token{Kind: TokPunct, Text: op, Pos: start}, nil
			}
		}
		if strings.ContainsRune("(),.;=<>+-*/~{}", rune(c)) {
			l.pos++
			return Token{Kind: TokPunct, Text: string(c), Pos: start}, nil
		}
		return Token{}, fmt.Errorf("unexpected character %q at offset %d", c, start)
	}
}

func (l *Lexer) skipSpaceAndComments() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case unicode.IsSpace(rune(c)):
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
				return
			}
			l.pos += 2 + end + 2
		default:
			return
		}
	}
}

// Tokenize scans all of src, returning the token list without the trailing
// EOF token.
func Tokenize(src string) ([]Token, error) {
	l := NewLexer(src)
	var toks []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == TokEOF {
			return toks, nil
		}
		toks = append(toks, t)
	}
}
