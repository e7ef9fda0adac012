// Package lexicon holds the linguistic knowledge of the interface that
// is independent of any particular database: English noun morphology,
// stopwords, the closed classes of question vocabulary (wh-words,
// comparatives, superlatives, aggregate words), and a vocabulary type
// with edit-distance spelling correction.
//
// Domain-specific vocabulary (table/column synonyms, data values) lives
// in the semantic index; this package only knows English.
package lexicon

import (
	"sort"
	"strings"
	"unicode/utf8"

	"repro/internal/strutil"
)

// CompareOp is a comparison operator recognized in questions.
type CompareOp int

const (
	Eq CompareOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CompareOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Agg is an aggregate function recognized in questions.
type Agg int

const (
	NoAgg Agg = iota
	Count
	Sum
	Avg
	Min
	Max
)

func (a Agg) String() string {
	switch a {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Min:
		return "MIN"
	case Max:
		return "MAX"
	}
	return ""
}

// stopwords are dropped by baselines and ignored between grammar slots.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "of": true, "to": true,
	"is": true, "are": true, "was": true, "were": true, "be": true,
	"do": true, "does": true, "did": true, "me": true, "please": true,
	"all": true, "any": true, "there": true, "that": true, "those": true,
	"these": true, "this": true, "it": true, "its": true, "their": true,
	"have": true, "has": true, "had": true, "i": true, "you": true,
	"we": true, "us": true, "can": true, "could": true, "would": true,
	"will": true, "shall": true, "should": true,
}

// IsStopword reports whether w is a general English stopword.
func IsStopword(w string) bool { return stopwords[w] }

// WhWords maps question-opening words to the broad kind of question
// they signal.
var WhWords = map[string]bool{
	"what": true, "which": true, "who": true, "where": true,
	"when": true, "how": true, "whose": true,
}

// commandVerbs open imperative questions ("show ...", "list ...").
var commandVerbs = map[string]bool{
	"show": true, "list": true, "display": true, "give": true,
	"find": true, "get": true, "print": true, "return": true,
	"retrieve": true, "name": true, "tell": true, "report": true,
	"output": true, "fetch": true, "select": true,
}

// IsCommandVerb reports whether w opens an imperative question.
func IsCommandVerb(w string) bool { return commandVerbs[w] }

// Comparatives maps single comparison words to operators. Multi-word
// comparatives ("more than", "at least", "greater than or equal to")
// are composed by the grammar from these plus than/to particles.
var Comparatives = map[string]CompareOp{
	"over":      Gt,
	"above":     Gt,
	"exceeding": Gt,
	"exceeds":   Gt,
	"exceed":    Gt,
	"beyond":    Gt,
	"under":     Lt,
	"below":     Lt,
	"within":    Le,
	"atleast":   Ge,
	"atmost":    Le,
}

// ComparativeAdjs maps comparative adjectives/adverbs used with "than".
var ComparativeAdjs = map[string]CompareOp{
	"more":    Gt,
	"greater": Gt,
	"higher":  Gt,
	"larger":  Gt,
	"bigger":  Gt,
	"longer":  Gt,
	"older":   Gt,
	"later":   Gt,
	"fewer":   Lt,
	"less":    Lt,
	"lower":   Lt,
	"smaller": Lt,
	"shorter": Lt,
	"younger": Lt,
	"earlier": Lt,
	"cheaper": Lt,
}

// Aggregates maps aggregate-signalling words to functions. "number"
// and "count" combine with "of"; "how many" is handled by the grammar.
var Aggregates = map[string]Agg{
	"average":  Avg,
	"mean":     Avg,
	"avg":      Avg,
	"total":    Sum,
	"sum":      Sum,
	"overall":  Sum,
	"number":   Count,
	"count":    Count,
	"maximum":  Max,
	"max":      Max,
	"highest":  Max,
	"largest":  Max,
	"biggest":  Max,
	"minimum":  Min,
	"min":      Min,
	"lowest":   Min,
	"smallest": Min,
}

// Superlative describes a superlative adjective: the sort direction it
// implies and an optional attribute it hints at (e.g. "longest" hints
// at a length-like column even when none is mentioned).
type Superlative struct {
	Desc bool   // true = take the maximum (ORDER BY ... DESC LIMIT 1)
	Hint string // normalized attribute hint, "" if none
}

// Superlatives maps superlative adjectives to their meaning.
var Superlatives = map[string]Superlative{
	"largest":  {Desc: true},
	"biggest":  {Desc: true},
	"highest":  {Desc: true},
	"greatest": {Desc: true},
	"most":     {Desc: true},
	"maximum":  {Desc: true},
	"top":      {Desc: true},
	"best":     {Desc: true},
	"longest":  {Desc: true, Hint: "length"},
	"tallest":  {Desc: true, Hint: "height"},
	"oldest":   {Desc: true, Hint: "age"},
	"richest":  {Desc: true, Hint: "gdp"},
	"smallest": {Desc: false},
	"lowest":   {Desc: false},
	"least":    {Desc: false},
	"fewest":   {Desc: false},
	"minimum":  {Desc: false},
	"bottom":   {Desc: false},
	"worst":    {Desc: false},
	"shortest": {Desc: false, Hint: "length"},
	"cheapest": {Desc: false, Hint: "price"},
	"youngest": {Desc: false, Hint: "age"},
	"poorest":  {Desc: false, Hint: "gdp"},
}

// AdjHints maps plain adjectives used under "most"/"least" to the
// attribute they evoke ("the most expensive product" -> price).
var AdjHints = map[string]string{
	"expensive": "price",
	"costly":    "price",
	"cheap":     "price",
	"populous":  "population",
	"wealthy":   "gdp",
	"rich":      "gdp",
	"tall":      "height",
	"high":      "height",
	"long":      "length",
	"short":     "length",
	"large":     "area",
	"big":       "area",
	"small":     "area",
	"old":       "age",
	"young":     "age",
}

// Negations introduce negated conditions ("not", "without", "except").
var Negations = map[string]bool{
	"not": true, "without": true, "except": true, "excluding": true,
	"no": true, "never": true, "isn't": true, "aren't": true,
}

// GroupMarkers introduce grouping ("per", "by", "each", "every").
var GroupMarkers = map[string]bool{
	"per": true, "by": true, "each": true, "every": true, "across": true,
}

// particles are grammar literal words not covered by the classes above
// but still part of the question language (and thus correctable).
var particles = []string{
	"than", "with", "whose", "where", "in", "from", "between", "and",
	"or", "least", "most", "each", "top", "first", "sorted", "sort",
	"order", "ordered", "ranked", "arranged", "descending", "desc",
	"ascending", "asc", "decreasing", "increasing", "equal", "equals",
	"to", "at", "for", "on", "as", "many", "much", "only", "also",
	"again", "them", "one", "two", "three", "five", "ten", "hundred",
	"thousand", "million", "named", "called", "titled", "exactly",
	"located", "enrolled", "majoring", "registered", "taught",
	"offered", "based", "currently", "earning", "earns", "live",
	"lives", "living", "study", "studies", "studying", "work",
	"works", "working", "holds", "offers", "group", "grouped",
	"split", "break", "down", "instead", "about", "same", "ones",
	"now", "then", "restrict", "filter", "but",
}

// FunctionWords returns every closed-class word the grammar can
// consume, for seeding the spelling-correction vocabulary.
func FunctionWords() []string {
	var out []string
	add := func(ws ...string) { out = append(out, ws...) }
	for w := range stopwords {
		add(w)
	}
	for w := range WhWords {
		add(w)
	}
	for w := range commandVerbs {
		add(w)
	}
	for w := range Comparatives {
		add(w)
	}
	for w := range ComparativeAdjs {
		add(w)
	}
	for w := range Aggregates {
		add(w)
	}
	for w := range Superlatives {
		add(w)
	}
	for w := range Negations {
		add(w)
	}
	for w := range GroupMarkers {
		add(w)
	}
	add(particles...)
	return out
}

// irregularSingulars maps irregular plural forms to singulars.
var irregularSingulars = map[string]string{
	"children": "child", "people": "person", "men": "man",
	"women": "woman", "feet": "foot", "teeth": "tooth",
	"mice": "mouse", "geese": "goose", "data": "datum",
	"criteria": "criterion", "indices": "index", "statuses": "status",
	"analyses": "analysis", "theses": "thesis", "alumni": "alumnus",
	"cities": "city", "countries": "country", "salaries": "salary",
	"faculties": "faculty", "universities": "university",
	"categories": "category", "companies": "company",
	"industries": "industry", "quantities": "quantity",
}

// invariantNouns are the same in singular and plural.
var invariantNouns = map[string]bool{
	"series": true, "species": true, "staff": true, "gpa": true,
	"sales": true, "fish": true, "sheep": true, "deer": true,
}

// Singular returns the singular form of an English noun using the
// irregular table plus productive rules. Non-plural inputs pass
// through unchanged where the rules allow.
func Singular(w string) string {
	if invariantNouns[w] {
		return w
	}
	if s, ok := irregularSingulars[w]; ok {
		return s
	}
	n := len(w)
	switch {
	case n > 3 && strings.HasSuffix(w, "ies"):
		return w[:n-3] + "y"
	case n > 4 && (strings.HasSuffix(w, "sses") || strings.HasSuffix(w, "shes") ||
		strings.HasSuffix(w, "ches")):
		return w[:n-2]
	case n > 3 && (strings.HasSuffix(w, "xes") || strings.HasSuffix(w, "zes")):
		return w[:n-2]
	case n > 3 && strings.HasSuffix(w, "ses") && w[n-4] != 's':
		// courses -> course, houses -> house
		return w[:n-1]
	case n > 2 && w[n-1] == 's' && w[n-2] != 's' && w[n-2] != 'u' && w[n-2] != 'i':
		return w[:n-1]
	}
	return w
}

// Plural returns the plural form of an English noun (used by NLG).
func Plural(w string) string {
	if invariantNouns[w] {
		return w
	}
	for pl, sg := range irregularSingulars {
		if sg == w {
			return pl
		}
	}
	n := len(w)
	switch {
	case n > 1 && w[n-1] == 'y' && !isVowel(w[n-2]):
		return w[:n-1] + "ies"
	case n > 0 && (w[n-1] == 's' || w[n-1] == 'x' || w[n-1] == 'z'):
		return w + "es"
	case n > 1 && (w[n-2:] == "ch" || w[n-2:] == "sh"):
		return w + "es"
	default:
		return w + "s"
	}
}

func isVowel(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}

// Vocabulary is a set of known words supporting spelling correction.
// The semantic index registers every schema term, synonym and indexed
// data value here so unknown question words can be repaired.
type Vocabulary struct {
	words   map[string]bool
	ordered []string
	dirty   bool
}

// NewVocabulary creates an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{words: make(map[string]bool)}
}

// Add registers one or more lowercase words.
func (v *Vocabulary) Add(words ...string) {
	for _, w := range words {
		if w == "" || v.words[w] {
			continue
		}
		v.words[w] = true
		v.dirty = true
	}
}

// Contains reports whether w is a known word.
func (v *Vocabulary) Contains(w string) bool { return v.words[w] }

// Len returns the number of known words.
func (v *Vocabulary) Len() int { return len(v.words) }

// Words returns the vocabulary in sorted order.
func (v *Vocabulary) Words() []string {
	if v.dirty || v.ordered == nil {
		v.ordered = v.ordered[:0]
		for w := range v.words {
			v.ordered = append(v.ordered, w)
		}
		sort.Strings(v.ordered)
		v.dirty = false
	}
	return v.ordered
}

// Correct proposes a correction for w within the given maximum
// Damerau-Levenshtein distance. Known words are returned unchanged.
// Candidates are ranked by distance, then Soundex agreement, then
// lexicographically, making the result deterministic. A candidate whose
// length differs from w's by more than maxDist runes cannot be within
// it and is skipped before its distance is computed.
func (v *Vocabulary) Correct(w string, maxDist int) (string, bool) {
	if v.words[w] {
		return w, true
	}
	if len(w) < 3 || maxDist <= 0 {
		return "", false
	}
	best := ""
	bestDist := maxDist + 1
	bestSound := false
	sound := strutil.Soundex(w)
	n := utf8.RuneCountInString(w)
	for _, cand := range v.Words() {
		if diff := utf8.RuneCountInString(cand) - n; diff > maxDist || -diff > maxDist {
			continue
		}
		d := strutil.Damerau(w, cand)
		if d > maxDist {
			continue
		}
		sameSound := strutil.Soundex(cand) == sound
		better := d < bestDist ||
			(d == bestDist && sameSound && !bestSound) ||
			(d == bestDist && sameSound == bestSound && cand < best)
		if better {
			best, bestDist, bestSound = cand, d, sameSound
		}
	}
	if best == "" {
		return "", false
	}
	return best, true
}
