// Package sqlparser implements the SQL dialect of BlinkDB (§2): standard
// aggregation queries extended with error bounds ("ERROR WITHIN 10% AT
// CONFIDENCE 95%"), response-time bounds ("WITHIN 5 SECONDS") and
// error-reporting projections ("RELATIVE ERROR AT 95% CONFIDENCE").
package sqlparser

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind classifies lexer tokens.
type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol // ( ) , * = < > <= >= <> != %
)

type token struct {
	kind tokKind
	text string // literal value or symbol; identifiers as spelled (parser.acceptKw folds case)
	raw  string // original spelling
	pos  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of query"
	case tokString:
		return fmt.Sprintf("'%s'", t.raw)
	default:
		return t.raw
	}
}

// lexer splits a query string into tokens.
type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	// Few tokens are under four bytes with their separator: one allocation.
	l := &lexer{src: src, toks: make([]token, 0, len(src)/4+2)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			// SQL line comment.
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case isIdentStart(c):
			l.lexIdent()
		case c >= '0' && c <= '9' || c == '.' && l.peekDigit():
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '-' && l.peekDigit():
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case c == '\'' || c == '"':
			if err := l.lexString(c); err != nil {
				return nil, err
			}
		default:
			if err := l.lexSymbol(); err != nil {
				return nil, err
			}
		}
	}
	l.toks = append(l.toks, token{kind: tokEOF, pos: l.pos})
	return l.toks, nil
}

// Identifiers are classified bytewise, bytes past ASCII read as Latin-1.
func isIdentStart(c byte) bool {
	if c < utf8.RuneSelf {
		return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_'
	}
	return unicode.IsLetter(rune(c))
}

// lower folds an identifier's ASCII letters and leaves every other byte as
// it is, so the folded identifier still lexes as one; strings.ToLower
// would fold Latin-1 bytes as UTF-8, or replace them.
func lower(s string) string {
	for i := 0; i < len(s); i++ {
		if 'A' <= s[i] && s[i] <= 'Z' {
			b := []byte(s)
			for ; i < len(b); i++ {
				if 'A' <= b[i] && b[i] <= 'Z' {
					b[i] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || '0' <= c && c <= '9' || c == '.' // Latin-1 has no digits past ASCII
}

func (l *lexer) peekDigit() bool {
	return l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9'
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
		l.pos++
	}
	raw := l.src[start:l.pos]
	l.toks = append(l.toks, token{kind: tokIdent, text: raw, raw: raw, pos: start})
}

func (l *lexer) lexNumber() error {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	dots := 0
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '.' {
			dots++
			if dots > 1 {
				return fmt.Errorf("invalid number at offset %d", start)
			}
			l.pos++
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		l.pos++
	}
	raw := l.src[start:l.pos]
	l.toks = append(l.toks, token{kind: tokNumber, text: raw, raw: raw, pos: start})
	return nil
}

func (l *lexer) lexString(quote byte) error {
	start := l.pos
	l.pos++ // opening quote
	var sb strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == quote {
			// Doubled quote is an escaped quote.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == quote {
				sb.WriteByte(quote)
				l.pos += 2
				continue
			}
			l.pos++
			l.toks = append(l.toks, token{kind: tokString, text: sb.String(), raw: sb.String(), pos: start})
			return nil
		}
		sb.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("unterminated string starting at offset %d", start)
}

func (l *lexer) lexSymbol() error {
	start := l.pos
	two := ""
	if l.pos+2 <= len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	switch two {
	case "<=", ">=", "<>", "!=":
		l.pos += 2
		l.toks = append(l.toks, token{kind: tokSymbol, text: two, raw: two, pos: start})
		return nil
	}
	c := l.src[l.pos]
	switch c {
	case '(', ')', ',', '*', '=', '<', '>', '%', ';':
		l.pos++
		s := string(c)
		l.toks = append(l.toks, token{kind: tokSymbol, text: s, raw: s, pos: start})
		return nil
	}
	return fmt.Errorf("unexpected character %q at offset %d", c, start)
}
