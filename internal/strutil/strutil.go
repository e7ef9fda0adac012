// Package strutil provides the low-level string and light NLP utilities
// every layer of the natural language interface builds on: a question
// tokenizer, a Porter stemmer, edit distances, Soundex codes and
// number-word parsing. It has no dependencies on the rest of the system.
package strutil

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies a token produced by Tokenize.
type TokenKind int

const (
	// Word is an alphabetic token (possibly with internal apostrophes
	// or hyphens, which are split out).
	Word TokenKind = iota
	// Number is a numeric token such as "42", "3.5" or "1,200".
	Number
	// Quoted is a token that appeared inside single or double quotes in
	// the input and is preserved verbatim (case included).
	Quoted
	// Punct is retained punctuation that matters to the grammar
	// (currently only "?" and ",").
	Punct
)

func (k TokenKind) String() string {
	switch k {
	case Word:
		return "word"
	case Number:
		return "number"
	case Quoted:
		return "quoted"
	case Punct:
		return "punct"
	}
	return "unknown"
}

// Token is a single unit of the tokenized question.
type Token struct {
	Text  string    // original surface form
	Lower string    // lowercased form (equal to Text for Quoted tokens)
	Kind  TokenKind // classification
	Pos   int       // byte offset of the token start in the input
}

// IsWord reports whether the token is a plain word.
func (t Token) IsWord() bool { return t.Kind == Word }

// IsNumber reports whether the token is numeric.
func (t Token) IsNumber() bool { return t.Kind == Number }

// Tokenize splits an English question into tokens. It lowercases words,
// recognizes numbers with decimal points and thousands separators,
// preserves quoted spans verbatim as single tokens, strips possessive
// "'s", and keeps "?" and "," as punctuation tokens (the grammar uses
// commas in lists). All other punctuation is dropped.
//
// The question is walked in place: a token's Text is a substring of s,
// and so is its Lower wherever no case folding or comma stripping is
// needed, so a lowercase question costs the token slice and nothing
// else.
func Tokenize(s string) []Token {
	toks := make([]Token, 0, estimateTokens(s))
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == '\'' || r == '"' || r == '“' || r == '‘':
			closing := matchingQuote(r)
			body := i + size
			if k := strings.IndexRune(s[body:], closing); k > 0 {
				text := s[body : body+k]
				toks = append(toks, Token{Text: text, Lower: text, Kind: Quoted, Pos: i})
				i = body + k + utf8.RuneLen(closing)
				continue
			}
			// Unbalanced (or empty) quote: skip it.
			i += size
		case unicode.IsDigit(r):
			j := i + size
			for j < len(s) {
				c, w := utf8.DecodeRuneInString(s[j:])
				if !unicode.IsDigit(c) && !((c == '.' || c == ',') && startsWith(s[j+w:], unicode.IsDigit)) {
					break
				}
				j += w
			}
			raw := s[i:j]
			toks = append(toks, Token{Text: raw, Lower: strings.ReplaceAll(raw, ",", ""), Kind: Number, Pos: i})
			i = j
		case unicode.IsLetter(r):
			j := i + size
			for j < len(s) {
				c, w := utf8.DecodeRuneInString(s[j:])
				if !unicode.IsLetter(c) && !unicode.IsDigit(c) && c != '_' &&
					!(c == '\'' && startsWith(s[j+w:], unicode.IsLetter)) {
					break
				}
				j += w
			}
			word := s[i:j]
			// Strip the possessive "'s"; a bare trailing apostrophe
			// never joins the word, since one is only taken before a letter.
			if n := len(word); n >= 2 && word[n-2] == '\'' && (word[n-1] == 's' || word[n-1] == 'S') {
				word = word[:n-2]
			}
			toks = append(toks, Token{Text: word, Lower: strings.ToLower(word), Kind: Word, Pos: i})
			i = j
		case r == '?' || r == ',':
			toks = append(toks, Token{Text: s[i : i+1], Lower: s[i : i+1], Kind: Punct, Pos: i})
			i++
		default:
			i += size
		}
	}
	return toks
}

// startsWith reports whether the first rune of s satisfies is. An
// empty s decodes to utf8.RuneError, which is neither letter nor digit.
func startsWith(s string, is func(rune) bool) bool {
	r, _ := utf8.DecodeRuneInString(s)
	return is(r)
}

// estimateTokens sizes Tokenize's slice in one pass over the bytes: a
// token per run of non-space bytes and one per "?" or ",". It is a
// guess, not a bound — "gpa>3.5" holds more tokens than it counts,
// "1,200" fewer — and append covers the difference.
func estimateTokens(s string) int {
	n, inRun := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == ' ':
			inRun = false
		case c == '?' || c == ',':
			n++
			inRun = false
		case !inRun:
			n++
			inRun = true
		}
	}
	return n
}

func matchingQuote(open rune) rune {
	switch open {
	case '“':
		return '”'
	case '‘':
		return '’'
	}
	return open
}

// Lowers returns the lowercase forms of toks, in order.
func Lowers(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Lower
	}
	return out
}

// Join renders tokens back into a readable string (lossy).
func Join(toks []Token) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	return b.String()
}

// Normalize lowercases s, collapses runs of whitespace to a single
// space, and trims the result. It is used for canonical comparisons of
// names in the semantic index.
func Normalize(s string) string {
	var b strings.Builder
	lastSpace := true
	for _, r := range strings.ToLower(s) {
		if unicode.IsSpace(r) || r == '_' || r == '-' {
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
			continue
		}
		b.WriteRune(r)
		lastSpace = false
	}
	return strings.TrimRight(b.String(), " ")
}

// Soundex returns the classic 4-character Soundex code for s, used as a
// last-resort phonetic match in spelling correction. Empty input yields
// an empty code.
func Soundex(s string) string {
	s = strings.ToUpper(s)
	var first byte
	var digits []byte
	prev := byte(0)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 'A' || c > 'Z' {
			continue
		}
		d := soundexDigit(c)
		if first == 0 {
			first = c
			prev = d
			continue
		}
		if d == 0 {
			// Vowels (and H/W partially) reset adjacency.
			if c != 'H' && c != 'W' {
				prev = 0
			}
			continue
		}
		if d != prev {
			digits = append(digits, '0'+d)
			if len(digits) == 3 {
				break
			}
		}
		prev = d
	}
	if first == 0 {
		return ""
	}
	for len(digits) < 3 {
		digits = append(digits, '0')
	}
	return string(first) + string(digits)
}

func soundexDigit(c byte) byte {
	switch c {
	case 'B', 'F', 'P', 'V':
		return 1
	case 'C', 'G', 'J', 'K', 'Q', 'S', 'X', 'Z':
		return 2
	case 'D', 'T':
		return 3
	case 'L':
		return 4
	case 'M', 'N':
		return 5
	case 'R':
		return 6
	}
	return 0
}
