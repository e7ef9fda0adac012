package strutil

// Stem returns the Porter stem of word. The input is expected to be
// lowercase ASCII; words shorter than three characters are returned
// unchanged, as in the original algorithm.
//
// This is a from-scratch implementation of M. F. Porter's 1980
// suffix-stripping algorithm, required here because the Go ecosystem
// offers no stdlib stemmer and the interface must run fully offline.
func Stem(word string) string {
	if len(word) <= 2 {
		return word
	}
	return string(AppendStem(nil, word))
}

// AppendStem appends the Porter stem of word to dst, stemming in dst's
// spare capacity: a caller that reuses dst stems without allocating.
func AppendStem(dst []byte, word string) []byte {
	n := len(dst)
	dst = append(dst, word...)
	if len(word) <= 2 {
		return dst
	}
	s := &stemmer{b: dst[n:]}
	s.step1a()
	s.step1b()
	s.step1c()
	s.step2()
	s.step3()
	s.step4()
	s.step5()
	return append(dst[:n], s.b...)
}

type stemmer struct {
	b []byte
}

// isCons reports whether b[i] is a consonant in Porter's sense.
func (s *stemmer) isCons(i int) bool {
	switch s.b[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !s.isCons(i - 1)
	}
	return true
}

// measure computes m, the number of VC sequences in b[:upTo].
func (s *stemmer) measure(upTo int) int {
	m := 0
	i := 0
	// Skip initial consonants.
	for i < upTo && s.isCons(i) {
		i++
	}
	for i < upTo {
		// Inside a vowel run.
		for i < upTo && !s.isCons(i) {
			i++
		}
		if i >= upTo {
			break
		}
		m++
		for i < upTo && s.isCons(i) {
			i++
		}
	}
	return m
}

// hasVowel reports whether b[:upTo] contains a vowel.
func (s *stemmer) hasVowel(upTo int) bool {
	for i := 0; i < upTo; i++ {
		if !s.isCons(i) {
			return true
		}
	}
	return false
}

// doubleCons reports whether b ends with a doubled consonant.
func (s *stemmer) doubleCons() bool {
	n := len(s.b)
	return n >= 2 && s.b[n-1] == s.b[n-2] && s.isCons(n-1)
}

// cvc reports whether b[:upTo] ends consonant-vowel-consonant where the
// final consonant is not w, x or y ("*o" in Porter's notation).
func (s *stemmer) cvc(upTo int) bool {
	if upTo < 3 {
		return false
	}
	i := upTo - 1
	if !s.isCons(i) || s.isCons(i-1) || !s.isCons(i-2) {
		return false
	}
	switch s.b[i] {
	case 'w', 'x', 'y':
		return false
	}
	return true
}

func (s *stemmer) hasSuffix(suf string) bool {
	n := len(s.b)
	if len(suf) > n {
		return false
	}
	return string(s.b[n-len(suf):]) == suf
}

// replaceIf replaces suffix suf with rep when m computed over the stem
// exceeds minM. It reports whether the suffix matched (regardless of
// whether the replacement fired), so rule lists can stop at first match.
func (s *stemmer) replaceIf(suf, rep string, minM int) bool {
	if !s.hasSuffix(suf) {
		return false
	}
	stemLen := len(s.b) - len(suf)
	if s.measure(stemLen) > minM {
		s.b = append(s.b[:stemLen], rep...)
	}
	return true
}

func (s *stemmer) step1a() {
	switch {
	case s.hasSuffix("sses"):
		s.b = s.b[:len(s.b)-2]
	case s.hasSuffix("ies"):
		s.b = append(s.b[:len(s.b)-3], 'i')
	case s.hasSuffix("ss"):
		// unchanged
	case s.hasSuffix("s"):
		s.b = s.b[:len(s.b)-1]
	}
}

func (s *stemmer) step1b() {
	if s.hasSuffix("eed") {
		if s.measure(len(s.b)-3) > 0 {
			s.b = s.b[:len(s.b)-1]
		}
		return
	}
	fired := false
	if s.hasSuffix("ed") && s.hasVowel(len(s.b)-2) {
		s.b = s.b[:len(s.b)-2]
		fired = true
	} else if s.hasSuffix("ing") && s.hasVowel(len(s.b)-3) {
		s.b = s.b[:len(s.b)-3]
		fired = true
	}
	if !fired {
		return
	}
	switch {
	case s.hasSuffix("at"), s.hasSuffix("bl"), s.hasSuffix("iz"):
		s.b = append(s.b, 'e')
	case s.doubleCons():
		last := s.b[len(s.b)-1]
		if last != 'l' && last != 's' && last != 'z' {
			s.b = s.b[:len(s.b)-1]
		}
	case s.measure(len(s.b)) == 1 && s.cvc(len(s.b)):
		s.b = append(s.b, 'e')
	}
}

func (s *stemmer) step1c() {
	if s.hasSuffix("y") && s.hasVowel(len(s.b)-1) {
		s.b[len(s.b)-1] = 'i'
	}
}

func (s *stemmer) step2() {
	rules := []struct{ suf, rep string }{
		{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"},
		{"anci", "ance"}, {"izer", "ize"}, {"abli", "able"},
		{"alli", "al"}, {"entli", "ent"}, {"eli", "e"},
		{"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
		{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"},
		{"fulness", "ful"}, {"ousness", "ous"}, {"aliti", "al"},
		{"iviti", "ive"}, {"biliti", "ble"},
	}
	for _, r := range rules {
		if s.replaceIf(r.suf, r.rep, 0) {
			return
		}
	}
}

func (s *stemmer) step3() {
	rules := []struct{ suf, rep string }{
		{"icate", "ic"}, {"ative", ""}, {"alize", "al"},
		{"iciti", "ic"}, {"ical", "ic"}, {"ful", ""}, {"ness", ""},
	}
	for _, r := range rules {
		if s.replaceIf(r.suf, r.rep, 0) {
			return
		}
	}
}

func (s *stemmer) step4() {
	sufs := []string{
		"al", "ance", "ence", "er", "ic", "able", "ible", "ant",
		"ement", "ment", "ent", "ion", "ou", "ism", "ate", "iti",
		"ous", "ive", "ize",
	}
	for _, suf := range sufs {
		if !s.hasSuffix(suf) {
			continue
		}
		stemLen := len(s.b) - len(suf)
		if suf == "ion" {
			if stemLen > 0 && (s.b[stemLen-1] == 's' || s.b[stemLen-1] == 't') && s.measure(stemLen) > 1 {
				s.b = s.b[:stemLen]
			}
			return
		}
		if s.measure(stemLen) > 1 {
			s.b = s.b[:stemLen]
		}
		return
	}
}

func (s *stemmer) step5() {
	// Step 5a.
	if s.hasSuffix("e") {
		n := len(s.b) - 1
		m := s.measure(n)
		if m > 1 || (m == 1 && !s.cvc(n)) {
			s.b = s.b[:n]
		}
	}
	// Step 5b.
	if s.hasSuffix("l") && s.doubleCons() && s.measure(len(s.b)) > 1 {
		s.b = s.b[:len(s.b)-1]
	}
}
