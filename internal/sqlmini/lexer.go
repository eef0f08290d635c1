// Package sqlmini tokenizes the SQL subset of the paper's statement
// catalog (Table II): keywords and identifiers, '?' placeholders,
// quoted strings (a doubled quote escapes one), signed integer and decimal numbers,
// and the symbols ( ) , = + * . ;
//
// Nothing outside its tests calls it: T1–T4 are defined once, natively, in
// internal/core/workload.go.
package sqlmini

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokPlaceholder // ?
	tokSymbol      // ( ) , = + * . ;
)

type token struct {
	kind tokenKind
	text string
	pos  int
}

type lexer struct {
	src    string
	pos    int
	tokens []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '?':
			l.emit(tokPlaceholder, "?")
			l.pos++
		case strings.IndexByte("(),=+*.;", c) >= 0:
			l.emit(tokSymbol, string(c))
			l.pos++
		case c == '\'':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '-' || (c >= '0' && c <= '9'):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case isIdentStart(rune(c)):
			l.lexIdent()
		default:
			return nil, fmt.Errorf("sqlmini: unexpected character %q at %d", c, l.pos)
		}
	}
	l.emit(tokEOF, "")
	return l.tokens, nil
}

func (l *lexer) emit(kind tokenKind, text string) {
	l.tokens = append(l.tokens, token{kind: kind, text: text, pos: l.pos})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '\'' {
			// '' escapes a quote, SQL style.
			if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
				b.WriteByte('\'')
				l.pos += 2
				continue
			}
			l.pos++
			l.tokens = append(l.tokens, token{kind: tokString, text: b.String(), pos: start})
			return nil
		}
		b.WriteByte(c)
		l.pos++
	}
	return fmt.Errorf("sqlmini: unterminated string starting at %d", start)
}

func (l *lexer) lexNumber() error {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
		if l.pos >= len(l.src) || l.src[l.pos] < '0' || l.src[l.pos] > '9' {
			return fmt.Errorf("sqlmini: stray '-' at %d", start)
		}
	}
	seenDot := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' {
			l.pos++
			continue
		}
		if c == '.' && !seenDot {
			seenDot = true
			l.pos++
			continue
		}
		break
	}
	l.tokens = append(l.tokens, token{kind: tokNumber, text: l.src[start:l.pos], pos: start})
	return nil
}

func (l *lexer) lexIdent() {
	start := l.pos
	for l.pos < len(l.src) && isIdentPart(rune(l.src[l.pos])) {
		l.pos++
	}
	l.tokens = append(l.tokens, token{kind: tokIdent, text: l.src[start:l.pos], pos: start})
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
