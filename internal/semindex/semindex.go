// Package semindex builds the semantic index of a database: a name
// index over schema elements (tables and columns, with synonyms,
// singular/plural forms and stems) and an inverted value index over the
// stored data (the mechanism that lets "Amsterdam" resolve to
// cities.name). Given a tokenized question it produces span
// annotations — the Evidence Set of the rule-based architecture — and
// supplies the vocabulary for spelling correction.
//
// Every knowledge source is individually switchable (Options) so the
// lexicon-ablation experiment (T2) can measure its contribution.
package semindex

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/lexicon"
	"repro/internal/schema"
	"repro/internal/store"
	"repro/internal/strutil"
)

// ElemKind classifies what an annotation refers to.
type ElemKind int

const (
	TableElem ElemKind = iota
	ColumnElem
	ValueElem
)

func (k ElemKind) String() string {
	switch k {
	case TableElem:
		return "table"
	case ColumnElem:
		return "column"
	case ValueElem:
		return "value"
	}
	return "?"
}

// Annotation is one span → schema-element association.
type Annotation struct {
	Start, End int // token span [Start, End)
	Kind       ElemKind
	Table      string
	Column     string      // set for ColumnElem and ValueElem
	Value      store.Value // set for ValueElem: the exact stored value
	Score      float64     // match quality in (0, 1]
	Surface    string      // the matched question text
}

// Len returns the span length in tokens.
func (a Annotation) Len() int { return a.End - a.Start }

// Options selects the knowledge sources for the index.
type Options struct {
	Synonyms bool // table/column synonyms from the schema
	Stems    bool // Porter-stem fallback matching
	Values   bool // inverted index over stored text values
}

// DefaultOptions enables everything.
func DefaultOptions() Options { return Options{Synonyms: true, Stems: true, Values: true} }

// match scores for the different knowledge sources.
const (
	scoreExact    = 1.0
	scoreSingular = 0.9
	scoreSynonym  = 0.85
	scoreStem     = 0.7
	scoreValue    = 1.0
)

// maxValueDistinct caps how many distinct values of a non-NameLike text
// column are indexed; columns beyond the cap (free text) are skipped,
// the way era systems bounded their dictionaries.
const maxValueDistinct = 2000

type nameEntry struct {
	kind   ElemKind
	table  string
	column string
	score  float64
}

type valueEntry struct {
	table  string
	column string
	value  store.Value
}

// Index is the semantic index of one database.
type Index struct {
	Schema *schema.Schema
	Opts   Options
	Vocab  *lexicon.Vocabulary

	names       map[string][]nameEntry // normalized phrase -> elements
	stemNames   map[string][]nameEntry // stemmed phrase -> elements
	values      map[string][]valueEntry
	maxNameLen  int // longest registered name phrase, in words
	maxValueLen int
}

// Build constructs the index for db. Data values are read through one
// pinned snapshot, so building an engine while a loader is running
// indexes a consistent instant of the data, and straight from the
// segments: a sealed segment's dictionary already lists its distinct
// values.
func Build(db *store.DB, opts Options) *Index {
	sn := db.Snapshot()
	idx := &Index{
		Schema:    db.Schema,
		Opts:      opts,
		Vocab:     lexicon.NewVocabulary(),
		names:     map[string][]nameEntry{},
		stemNames: map[string][]nameEntry{},
		values:    map[string][]valueEntry{},
	}
	idx.Vocab.Add(lexicon.FunctionWords()...)

	for _, t := range db.Schema.Tables {
		idx.registerName(t.Name, nameEntry{kind: TableElem, table: t.Name, score: scoreExact})
		if opts.Synonyms {
			for _, syn := range t.Synonyms {
				idx.registerName(syn, nameEntry{kind: TableElem, table: t.Name, score: scoreSynonym})
			}
		}
		for _, c := range t.Columns {
			e := nameEntry{kind: ColumnElem, table: t.Name, column: c.Name, score: scoreExact}
			idx.registerName(c.Name, e)
			if opts.Synonyms {
				for _, syn := range c.Synonyms {
					se := e
					se.score = scoreSynonym
					idx.registerName(syn, se)
				}
			}
		}
	}

	if opts.Values {
		for _, t := range db.Schema.Tables {
			tab := sn.Table(t.Name)
			for ci, c := range t.Columns {
				if c.Type != schema.Text {
					continue
				}
				for s := range textValues(tab, ci, !c.NameLike) {
					idx.registerValue(s, valueEntry{table: t.Name, column: c.Name, value: store.Text(s)})
				}
			}
		}
	}
	// Finalize the vocabulary's sorted view now, so a fully built index
	// is safe for concurrent readers (Correct sorts lazily otherwise).
	idx.Vocab.Words()
	return idx
}

// textValues returns the distinct non-NULL values of text column ci,
// read from each sealed segment's dictionary (or its plain strings)
// and the tail's strings; nil when capped and there are more than
// maxValueDistinct.
func textValues(tab *store.TableSnap, ci int, capped bool) map[string]struct{} {
	distinct := map[string]struct{}{}
	for _, seg := range tab.Segments().Segs {
		c := seg.Cols()[ci]
		if c.Enc == store.SegDict {
			// Every dictionary entry is a value some cell holds.
			for _, s := range c.Dict {
				distinct[s] = struct{}{}
			}
		} else {
			for i, s := range c.Strs {
				if !c.IsNull(i) {
					distinct[s] = struct{}{}
				}
			}
		}
		if capped && len(distinct) > maxValueDistinct {
			return nil
		}
	}
	return distinct
}

// registerName indexes a phrase under its normalized, singularized and
// (optionally) stemmed forms.
func (idx *Index) registerName(phrase string, e nameEntry) {
	words := strings.Fields(strutil.Normalize(phrase))
	if len(words) == 0 {
		return
	}
	idx.Vocab.Add(words...)
	key := strings.Join(words, " ")
	idx.addName(idx.names, key, e)
	if len(words) > idx.maxNameLen {
		idx.maxNameLen = len(words)
	}

	// Singular and plural of the head (final) word, so "order items",
	// "order item", "professor" and "professors" all resolve.
	for _, form := range []string{
		lexicon.Singular(words[len(words)-1]),
		lexicon.Plural(words[len(words)-1]),
	} {
		alt := append([]string{}, words...)
		alt[len(alt)-1] = form
		if akey := strings.Join(alt, " "); akey != key {
			se := e
			se.score = min(se.score, scoreSingular)
			idx.addName(idx.names, akey, se)
			idx.Vocab.Add(form)
		}
	}

	if idx.Opts.Stems {
		stemmed := make([]string, len(words))
		for i, w := range words {
			stemmed[i] = strutil.Stem(w)
		}
		if stKey := strings.Join(stemmed, " "); stKey != key {
			se := e
			se.score = scoreStem
			idx.addName(idx.stemNames, stKey, se)
		}
	}
}

func (idx *Index) addName(m map[string][]nameEntry, key string, e nameEntry) {
	for _, old := range m[key] {
		if old.kind == e.kind && old.table == e.table && old.column == e.column {
			return // keep the first (highest-priority) registration
		}
	}
	m[key] = append(m[key], e)
}

func (idx *Index) registerValue(s string, e valueEntry) {
	words := strings.Fields(strutil.Normalize(s))
	if len(words) == 0 || len(words) > 5 {
		return
	}
	idx.Vocab.Add(words...)
	key := strings.Join(words, " ")
	for _, old := range idx.values[key] {
		if old.table == e.table && old.column == e.column && old.value.Key() == e.value.Key() {
			return
		}
	}
	idx.values[key] = append(idx.values[key], e)
	if len(words) > idx.maxValueLen {
		idx.maxValueLen = len(words)
	}
}

// Annotate produces all span annotations over the tokens. For each
// start position it applies longest-match per knowledge source (names
// and values independently), preserving genuine ambiguity: one span may
// map to several schema elements.
func (idx *Index) Annotate(toks []strutil.Token) []Annotation {
	var out []Annotation
	buf := make([]byte, 0, 64) // every span's lookup keys, built in place
	for start := range toks {
		out, buf = idx.nameMatchesAt(out, buf, toks, start)
		out, buf = idx.valueMatchesAt(out, buf, toks, start)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Len() != out[j].Len() {
			return out[i].Len() > out[j].Len()
		}
		return out[i].Score > out[j].Score
	})
	return out
}

// appendKey appends the lookup key of a span to dst: its lowered words,
// or their stems, joined by single spaces.
func appendKey(dst []byte, span []strutil.Token, stem bool) []byte {
	for i, t := range span {
		if i > 0 {
			dst = append(dst, ' ')
		}
		if stem {
			dst = strutil.AppendStem(dst, t.Lower)
		} else {
			dst = append(dst, t.Lower...)
		}
	}
	return dst
}

// nameMatchesAt appends to out the name annotations of the longest span
// at start that names a schema element. The keys it looks up are built
// in buf, returned for reuse; only a span that matches allocates, for
// its Surface.
func (idx *Index) nameMatchesAt(out []Annotation, buf []byte, toks []strutil.Token, start int) ([]Annotation, []byte) {
	maxL := idx.maxNameLen
	if start+maxL > len(toks) {
		maxL = len(toks) - start
	}
	for l := maxL; l >= 1; l-- {
		span := toks[start : start+l]
		buf = appendKey(buf[:0], span, false)
		keyLen := len(buf)
		entries, viaStem := idx.names[string(buf)], false
		if len(entries) == 0 && idx.Opts.Stems {
			buf = appendKey(buf, span, true)
			stemKey := buf[keyLen:]
			entries = idx.stemNames[string(stemKey)]
			if len(entries) == 0 {
				// The stem of the question word may be a registered
				// name verbatim ("professors" -> "professor").
				entries, viaStem = idx.names[string(stemKey)], true
			}
		}
		if len(entries) == 0 {
			continue
		}
		surface := string(buf[:keyLen])
		for _, e := range entries {
			if viaStem {
				e.score = scoreStem
			}
			out = append(out, Annotation{
				Start: start, End: start + l,
				Kind: e.kind, Table: e.table, Column: e.column,
				Score: e.score, Surface: surface,
			})
		}
		return out, buf
	}
	return out, buf
}

// valueMatchesAt appends to out the value annotations of the longest
// span at start that is a stored value, building its keys in buf as
// nameMatchesAt does.
func (idx *Index) valueMatchesAt(out []Annotation, buf []byte, toks []strutil.Token, start int) ([]Annotation, []byte) {
	maxL := idx.maxValueLen
	if start+maxL > len(toks) {
		maxL = len(toks) - start
	}
	for l := maxL; l >= 1; l-- {
		buf = appendKey(buf[:0], toks[start:start+l], false)
		entries := idx.values[string(buf)]
		if len(entries) == 0 {
			continue
		}
		// Single-letter values (grades "A".."F") only match when the
		// question writes them in upper case, so articles don't turn
		// into grade conditions.
		if l == 1 && len(buf) == 1 && toks[start].Text == string(buf) {
			continue
		}
		surface := string(buf)
		for _, e := range entries {
			out = append(out, Annotation{
				Start: start, End: start + l,
				Kind: ValueElem, Table: e.table, Column: e.column,
				Value: e.value, Score: scoreValue, Surface: surface,
			})
		}
		return out, buf
	}
	return out, buf
}

// Correction records one spelling repair for the user-facing echo.
type Correction struct {
	From, To string
	Pos      int
}

// Correct repairs unknown words against the index vocabulary within
// maxDist Damerau-Levenshtein edits. Numbers, quoted tokens and known
// words pass through. toks is never written: a question with nothing
// to repair gets toks itself back, and one with a repair a copy.
func (idx *Index) Correct(toks []strutil.Token, maxDist int) ([]strutil.Token, []Correction) {
	if maxDist <= 0 {
		return toks, nil
	}
	out := toks
	var fixes []Correction
	for i, t := range toks {
		if t.Kind != strutil.Word {
			continue
		}
		if idx.Vocab.Contains(t.Lower) {
			continue
		}
		fixed, ok := idx.Vocab.Correct(t.Lower, maxDist)
		if !ok {
			continue
		}
		if fixes == nil {
			out = slices.Clone(toks)
		}
		fixes = append(fixes, Correction{From: t.Lower, To: fixed, Pos: i})
		out[i] = strutil.Token{Text: fixed, Lower: fixed, Kind: strutil.Word, Pos: t.Pos}
	}
	return out, fixes
}

// ColumnType reports the type of table.column.
func (idx *Index) ColumnType(table, column string) (schema.ColType, bool) {
	t := idx.Schema.Table(table)
	if t == nil {
		return 0, false
	}
	c := t.Column(column)
	if c == nil {
		return 0, false
	}
	return c.Type, true
}

// NameCount and ValueCount expose index sizes for diagnostics.
func (idx *Index) NameCount() int  { return len(idx.names) + len(idx.stemNames) }
func (idx *Index) ValueCount() int { return len(idx.values) }

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
