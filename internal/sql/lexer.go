package sql

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tkEOF tokKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString
	tkOp // operators and punctuation
)

type token struct {
	kind tokKind
	text string // keywords upper-cased, idents lower-cased, ops verbatim
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "FROM": true, "WHERE": true,
	"GROUP": true, "BY": true, "HAVING": true, "ORDER": true,
	"ASC": true, "DESC": true, "LIMIT": true, "AND": true, "OR": true,
	"NOT": true, "IN": true, "EXISTS": true, "BETWEEN": true,
	"LIKE": true, "IS": true, "NULL": true, "AS": true,
	"TRUE": true, "FALSE": true,
}

// lex tokenizes SQL source. Identifiers are lower-cased; keywords are
// upper-cased and reported as tkKeyword.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'':
			j := i + 1
			var sb strings.Builder
			closed := false
			for j < n {
				if src[j] == '\'' {
					if j+1 < n && src[j+1] == '\'' {
						sb.WriteByte('\'')
						j += 2
						continue
					}
					closed = true
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			if !closed {
				return nil, fmt.Errorf("sql: unterminated string at offset %d", i)
			}
			toks = append(toks, token{kind: tkString, text: sb.String(), pos: i})
			i = j + 1
		case isDigit(c):
			j := i
			for j < n && isDigit(src[j]) {
				j++
			}
			if j+1 < n && src[j] == '.' && isDigit(src[j+1]) {
				j++
				for j < n && isDigit(src[j]) {
					j++
				}
			}
			toks = append(toks, token{kind: tkNumber, text: src[i:j], pos: i})
			i = j
		case isIdentStart(c):
			j := i
			for j < n && (isIdentStart(src[j]) || isDigit(src[j])) {
				j++
			}
			word := src[i:j]
			up := strings.ToUpper(word)
			if keywords[up] {
				toks = append(toks, token{kind: tkKeyword, text: up, pos: i})
			} else {
				toks = append(toks, token{kind: tkIdent, text: strings.ToLower(word), pos: i})
			}
			i = j
		default:
			switch c {
			case '<':
				if i+1 < n && (src[i+1] == '=' || src[i+1] == '>') {
					toks = append(toks, token{kind: tkOp, text: src[i : i+2], pos: i})
					i += 2
				} else {
					toks = append(toks, token{kind: tkOp, text: "<", pos: i})
					i++
				}
			case '>':
				if i+1 < n && src[i+1] == '=' {
					toks = append(toks, token{kind: tkOp, text: ">=", pos: i})
					i += 2
				} else {
					toks = append(toks, token{kind: tkOp, text: ">", pos: i})
					i++
				}
			case '!':
				if i+1 < n && src[i+1] == '=' {
					toks = append(toks, token{kind: tkOp, text: "<>", pos: i})
					i += 2
				} else {
					return nil, fmt.Errorf("sql: unexpected '!' at offset %d", i)
				}
			case '=', '(', ')', ',', '.', '*', '+', '-', '/':
				toks = append(toks, token{kind: tkOp, text: string(c), pos: i})
				i++
			case ';':
				i++ // trailing semicolons are permitted and ignored
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
			}
		}
	}
	toks = append(toks, token{kind: tkEOF, pos: n})
	return toks, nil
}

// isIdentStart reports whether c may start an identifier. Identifiers
// are ASCII: a byte of 0x80 or above outside a string literal is an
// unexpected character, not a letter of some other encoding, so an
// identifier survives lower-casing and re-lexing unchanged.
func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
