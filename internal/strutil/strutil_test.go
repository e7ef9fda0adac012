package strutil

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
)

func TestTokenizeBasic(t *testing.T) {
	toks := Tokenize("Show all Students with GPA above 3.5")
	want := []string{"show", "all", "students", "with", "gpa", "above", "3.5"}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(toks), toks, len(want))
	}
	for i, w := range want {
		if toks[i].Lower != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Lower, w)
		}
	}
	if toks[6].Kind != Number {
		t.Errorf("token 6 kind = %v, want Number", toks[6].Kind)
	}
}

func TestTokenizeQuoted(t *testing.T) {
	toks := Tokenize(`who teaches "Operating Systems"?`)
	if len(toks) != 4 {
		t.Fatalf("got %v", toks)
	}
	if toks[2].Kind != Quoted || toks[2].Text != "Operating Systems" {
		t.Errorf("quoted token = %+v", toks[2])
	}
	if toks[3].Kind != Punct || toks[3].Text != "?" {
		t.Errorf("expected trailing '?', got %+v", toks[3])
	}
}

func TestTokenizePossessive(t *testing.T) {
	toks := Tokenize("Smith's salary")
	if len(toks) != 2 || toks[0].Lower != "smith" || toks[1].Lower != "salary" {
		t.Fatalf("got %v", toks)
	}
}

func TestTokenizeThousandsSeparator(t *testing.T) {
	toks := Tokenize("population over 1,000,000")
	if len(toks) != 3 {
		t.Fatalf("got %v", toks)
	}
	if toks[2].Lower != "1000000" || toks[2].Kind != Number {
		t.Errorf("number token = %+v", toks[2])
	}
}

func TestTokenizeUnbalancedQuote(t *testing.T) {
	toks := Tokenize(`what is "unclosed`)
	// The unbalanced quote is skipped; remaining words tokenize normally.
	if len(toks) != 3 {
		t.Fatalf("got %v", toks)
	}
	if toks[2].Lower != "unclosed" {
		t.Errorf("got %+v", toks[2])
	}
}

func TestTokenizeEmptyAndPunctOnly(t *testing.T) {
	if got := Tokenize(""); len(got) != 0 {
		t.Errorf("empty input produced %v", got)
	}
	if got := Tokenize("!!! ... ;;"); len(got) != 0 {
		t.Errorf("punct-only input produced %v", got)
	}
}

func TestTokenPositions(t *testing.T) {
	input := "list rivers"
	toks := Tokenize(input)
	if len(toks) != 2 {
		t.Fatal(toks)
	}
	if toks[0].Pos != 0 || toks[1].Pos != 5 {
		t.Errorf("positions = %d, %d", toks[0].Pos, toks[1].Pos)
	}
	if input[toks[1].Pos:toks[1].Pos+6] != "rivers" {
		t.Errorf("offset does not point at token")
	}
}

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"Dept_Name":      "dept name",
		"  Hello  World": "hello world",
		"first-name":     "first name",
		"GPA":            "gpa",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemKnownPairs(t *testing.T) {
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"formaliti":    "formal",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
		"students":     "student",
		"salaries":     "salari",
		"countries":    "countri",
		"teaches":      "teach",
		"teaching":     "teach",
		"largest":      "largest",
		"departments":  "depart",
	}
	// AppendStem stems in a reused buffer's spare capacity, after what
	// the buffer already holds: the prefix must survive, also where a
	// rule appends to what an earlier one stripped ("hoping" -> "hope").
	cases["hoping"] = "hope"
	buf := make([]byte, 0, 64)
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
		buf = AppendStem(append(buf[:0], "key "...), in)
		if got := string(buf); got != "key "+want {
			t.Errorf("AppendStem(%q, %q) = %q, want %q", "key ", in, got, "key "+want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"a", "is", "go", ""} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemIdempotentOnCommonWords(t *testing.T) {
	words := []string{"students", "salaries", "teaching", "departments",
		"populations", "capitals", "averages", "enrollments", "ordering"}
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		// Porter is not strictly idempotent in general, but on these
		// domain nouns a second application must be stable.
		if Stem(twice) != twice {
			t.Errorf("stem of %q not stable: %q -> %q -> %q", w, once, twice, Stem(twice))
		}
	}
}

func TestLevenshteinBasic(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"salary", "salary", 0},
		{"student", "studnet", 2}, // transposition costs 2 in plain Levenshtein
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDamerauTransposition(t *testing.T) {
	if got := Damerau("student", "studnet"); got != 1 {
		t.Errorf("Damerau transposition = %d, want 1", got)
	}
	// The OSA variant does not allow edits within a transposed pair,
	// so "ca" -> "abc" costs 3 (true Damerau would give 2).
	if got := Damerau("ca", "abc"); got != 3 {
		t.Errorf("Damerau(ca,abc) = %d, want 3 (OSA variant)", got)
	}
}

func TestWithinDistance(t *testing.T) {
	if !WithinDistance("salary", "salery", 1) {
		t.Error("1-typo should be within 1")
	}
	if WithinDistance("salary", "slr", 1) {
		t.Error("length gap 3 cannot be within 1")
	}
	if !WithinDistance("exact", "exact", 0) {
		t.Error("equal strings within 0")
	}
	if WithinDistance("exact", "exacts", 0) {
		t.Error("different strings not within 0")
	}
}

func TestLevenshteinProperties(t *testing.T) {
	symmetric := func(a, b string) bool {
		if len(a) > 12 {
			a = a[:12]
		}
		if len(b) > 12 {
			b = b[:12]
		}
		return Levenshtein(a, b) == Levenshtein(b, a)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	identity := func(a string) bool {
		if len(a) > 16 {
			a = a[:16]
		}
		return Levenshtein(a, a) == 0 && Damerau(a, a) == 0
	}
	if err := quick.Check(identity, nil); err != nil {
		t.Error(err)
	}
	damerauLeqLev := func(a, b string) bool {
		if len(a) > 10 {
			a = a[:10]
		}
		if len(b) > 10 {
			b = b[:10]
		}
		return Damerau(a, b) <= Levenshtein(a, b)
	}
	if err := quick.Check(damerauLeqLev, nil); err != nil {
		t.Error(err)
	}
}

func TestSoundex(t *testing.T) {
	cases := map[string]string{
		"Robert":   "R163",
		"Rupert":   "R163",
		"Ashcraft": "A261",
		"Ashcroft": "A261",
		"Tymczak":  "T522",
		"Pfister":  "P236",
		"Honeyman": "H555",
		"":         "",
		"123":      "",
	}
	for in, want := range cases {
		if got := Soundex(in); got != want {
			t.Errorf("Soundex(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseNumber(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"42", 42, true},
		{"3.5", 3.5, true},
		{"1,200", 1200, true},
		{"", 0, false},
		{"abc", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseNumber(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("ParseNumber(%q) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestWordsToNumber(t *testing.T) {
	cases := []struct {
		in   []string
		want float64
		ok   bool
	}{
		{[]string{"five"}, 5, true},
		{[]string{"twenty", "five"}, 25, true},
		{[]string{"two", "hundred"}, 200, true},
		{[]string{"two", "hundred", "and", "fifty", "three"}, 253, true},
		{[]string{"three", "thousand"}, 3000, true},
		{[]string{"one", "million"}, 1e6, true},
		{[]string{"two", "million", "five", "hundred", "thousand"}, 2.5e6, true},
		{[]string{"hundred"}, 100, true},
		{[]string{"and"}, 0, false},
		{[]string{}, 0, false},
		{[]string{"banana"}, 0, false},
	}
	for _, c := range cases {
		got, ok := WordsToNumber(c.in)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("WordsToNumber(%v) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestIsNumberWord(t *testing.T) {
	for _, w := range []string{"five", "twenty", "hundred", "million"} {
		if !IsNumberWord(w) {
			t.Errorf("IsNumberWord(%q) = false", w)
		}
	}
	for _, w := range []string{"and", "fish", ""} {
		if IsNumberWord(w) {
			t.Errorf("IsNumberWord(%q) = true", w)
		}
	}
}

func TestFormatNumber(t *testing.T) {
	cases := map[float64]string{
		42:      "42",
		3.5:     "3.5",
		3.25:    "3.25",
		1000000: "1000000",
		2.10:    "2.1",
	}
	for in, want := range cases {
		if got := FormatNumber(in); got != want {
			t.Errorf("FormatNumber(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestLowersAndJoin(t *testing.T) {
	toks := Tokenize("Show Students")
	lows := Lowers(toks)
	if len(lows) != 2 || lows[0] != "show" || lows[1] != "students" {
		t.Errorf("Lowers = %v", lows)
	}
	if j := Join(toks); j != "Show Students" {
		t.Errorf("Join = %q", j)
	}
}

// tokenizeRunes is Tokenize as it stood before it learned to walk the
// string in place — a []rune copy, every token text a fresh string —
// kept as the oracle the fuzz target compares the fast path with.
func tokenizeRunes(s string) []Token {
	var toks []Token
	runes := []rune(s)
	n := len(runes)
	i := 0
	byteOff := 0
	advance := func(k int) {
		for j := 0; j < k; j++ {
			byteOff += len(string(runes[i+j]))
		}
		i += k
	}
	for i < n {
		r := runes[i]
		switch {
		case r == '\'' || r == '"' || r == '“' || r == '‘':
			close := matchingQuote(r)
			j := i + 1
			for j < n && runes[j] != close {
				j++
			}
			if j < n && j > i+1 {
				text := string(runes[i+1 : j])
				toks = append(toks, Token{Text: text, Lower: text, Kind: Quoted, Pos: byteOff})
				advance(j - i + 1)
				continue
			}
			// Unbalanced quote: skip it.
			advance(1)
		case unicode.IsDigit(r):
			j := i
			for j < n && (unicode.IsDigit(runes[j]) ||
				(runes[j] == '.' && j+1 < n && unicode.IsDigit(runes[j+1])) ||
				(runes[j] == ',' && j+1 < n && unicode.IsDigit(runes[j+1]))) {
				j++
			}
			raw := string(runes[i:j])
			clean := strings.ReplaceAll(raw, ",", "")
			toks = append(toks, Token{Text: raw, Lower: clean, Kind: Number, Pos: byteOff})
			advance(j - i)
		case unicode.IsLetter(r):
			j := i
			for j < n && (unicode.IsLetter(runes[j]) || unicode.IsDigit(runes[j]) || runes[j] == '_' ||
				(runes[j] == '\'' && j+1 < n && unicode.IsLetter(runes[j+1]))) {
				j++
			}
			word := string(runes[i:j])
			// Strip possessive suffixes.
			if lw := strings.ToLower(word); strings.HasSuffix(lw, "'s") {
				word = word[:len(word)-2]
			} else if strings.HasSuffix(word, "'") {
				word = word[:len(word)-1]
			}
			if word != "" {
				toks = append(toks, Token{Text: word, Lower: strings.ToLower(word), Kind: Word, Pos: byteOff})
			}
			advance(j - i)
		case r == '?' || r == ',':
			toks = append(toks, Token{Text: string(r), Lower: string(r), Kind: Punct, Pos: byteOff})
			advance(1)
		default:
			advance(1)
		}
	}
	return toks
}

// FuzzTokenize requires Tokenize to produce, token for token, what the
// rune-based oracle produces. The oracle converts its input to runes
// first, which turns every byte of invalid UTF-8 into U+FFFD — three
// bytes — and counts Pos in that sanitized string; Tokenize reports
// offsets into the string it was given and keeps quoted bytes
// verbatim. The two are therefore compared on the sanitized input,
// which is the input itself whenever it is valid UTF-8 (always, behind
// the server: json.Unmarshal sanitizes the question the same way).
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"show students with gpa over 3.5",
		`"quoted value" and 1,200 items?`,
		// gold corpus (internal/bench imports this package, so copied)
		"what is the budget of the Physics department",
		"show the name and salary of instructors in Computer Science",
		`instructors named "Ada Lovelace"`,
		"instructors with salary between 50000 and 70000",
		"departments with budget over 1.5 million",
		"students whose gpa is higher than the average gpa of History students",
		"top 3 instructors by salary",
		"cities with population between 1000000 and 5000000",
		"total population of countries in Africa or Oceania",
		"what is the price of the Falcon Laptop",
		"customers not in the North region",
		// typo corpus (bench.TypoCases at one and two edits)
		"show all studenst",
		"how many instructors are in Phhysics",
		"instructors with salary beteen 50000 and 70000",
		"how many ordderrs per year",
		// dialogue corpus
		"only those with gpa over 3.5",
		"what about Mathematics",
		"sort them by gpa descending",
		"remove the gpa condition",
		// quoting, numbers, possessives, offsets past multi-byte runes
		"who teaches “Operating Systems”?",
		"courses titled ‘Compilers’ or 'Databases'",
		`an "unclosed quote and an empty "" pair`,
		"population over 1,000,000 or 1,200.5, or 7.",
		"the students' grades and Ada's gpa and O'Brien'S",
		"Ünïcödé Zürich's größte 東京 cities, café 3.5?",
		"é“x”é'y'é1,2é?é,éa_b'c",
		"٣٫٥ and ١٢٣ digits",
		"bad \xff bytes \"in \xfe quotes\" after\xc3",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		for _, tok := range toks {
			if tok.Text == "" {
				t.Errorf("empty token from %q", s)
			}
			if tok.Pos < 0 || tok.Pos > len(s) {
				t.Errorf("bad position %d for input of length %d", tok.Pos, len(s))
			}
		}
		want := tokenizeRunes(s)
		if !utf8.ValidString(s) {
			toks = Tokenize(string([]rune(s)))
		}
		if len(toks) != len(want) {
			t.Fatalf("%q: %d tokens %v, oracle has %d %v", s, len(toks), toks, len(want), want)
		}
		for i := range want {
			if toks[i] != want[i] {
				t.Errorf("%q: token %d = %+v, oracle has %+v", s, i, toks[i], want[i])
			}
		}
	})
}

func BenchmarkStem(b *testing.B) {
	words := []string{"departments", "relational", "teaching", "populations", "effectiveness"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

func BenchmarkDamerau(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Damerau("population", "populaiton")
	}
}
