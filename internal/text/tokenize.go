// Package text provides the text-processing primitives the extraction
// pipeline and the baseline summarizers share: tokenization, sentence
// splitting, stopwords, Porter stemming and TF-IDF vectorization.
package text

import (
	"strings"
	"sync"
	"unicode"
)

// Tokenize lowercases s and splits it into word tokens. Letters and
// digits are kept; an apostrophe is kept when surrounded by letters
// ("don't"), as is an internal hyphen ("touch-screen" stays one
// token); everything else separates tokens.
//
// Pure-ASCII input (the overwhelmingly common case for review text)
// runs on ScanASCII: tokens are sliced straight out of s, with zero
// allocations per token unless it contains an uppercase letter. Input
// with any non-ASCII byte falls back to the rune-exact path; both
// paths produce identical output on ASCII input.
func Tokenize(s string) []string {
	sc := scanPool.Get().(*Scan)
	defer scanPool.Put(sc)
	if !sc.ScanASCII(s) {
		return tokenizeRunes(s)
	}
	if len(sc.Tokens) == 0 {
		return nil
	}
	tokens := make([]string, len(sc.Tokens))
	var buf []byte // reused across uppercase tokens
	for i, t := range sc.Tokens {
		if !t.Upper {
			tokens[i] = s[t.Start:t.End]
			continue
		}
		buf = AppendLowerASCII(buf[:0], s[t.Start:t.End])
		tokens[i] = string(buf)
	}
	return tokens
}

// AppendLowerASCII appends s to dst with ASCII uppercase letters
// lowered: the lowercase form of an ASCII token.
func AppendLowerASCII(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c |= 0x20
		}
		dst = append(dst, c)
	}
	return dst
}

// Byte classes of the ASCII scan.
const (
	classLetter uint8 = 1 << iota
	classDigit
	classUpper
)

// asciiClass classifies each byte; bytes outside letters and digits,
// non-ASCII ones included, have no class.
var asciiClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = classLetter
		t[c-'a'+'A'] = classLetter | classUpper
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = classDigit
	}
	return t
}()

func isASCIILetter(c byte) bool { return asciiClass[c]&classLetter != 0 }

func isASCIIDigit(c byte) bool { return asciiClass[c]&classDigit != 0 }

// Token is one token's byte span [Start, End) in scanned text. Upper
// reports an ASCII uppercase letter in the span, so the token's
// lowercase form is the span itself exactly when Upper is false.
type Token struct {
	Start, End int
	Upper      bool
}

// Sentence is one trimmed sentence's byte span [Start, End) in scanned
// text; its tokens are the scan's Tokens[TokStart:TokEnd].
type Sentence struct {
	Start, End       int
	TokStart, TokEnd int
}

// Scan holds the sentences and tokens of one ASCII text. ScanASCII
// reuses its slices, so one Scan serves many texts.
type Scan struct {
	Sentences []Sentence
	Tokens    []Token
}

// scanPool recycles the Scans behind Tokenize and SplitSentences.
var scanPool = sync.Pool{New: func() any { return new(Scan) }}

// ScanASCII walks s once and records its sentences and their tokens:
// the sentences are SplitSentences(s) as spans of s, and each
// sentence's tokens are the spans of Tokenize of that sentence. This
// is the only place the ASCII sentence and token rules live. Every
// sentence terminator also separates tokens, so no token crosses a
// sentence boundary. It reports false, with sc's contents unspecified,
// when s has a non-ASCII byte; the rune-exact paths handle such text.
func (sc *Scan) ScanASCII(s string) bool {
	sc.Sentences = sc.Sentences[:0]
	sc.Tokens = sc.Tokens[:0]
	start := 0        // current sentence's start in s
	tok := -1         // current token's start in s; -1 when between tokens
	var classes uint8 // union of the current token's byte classes
	for i := 0; i < len(s); i++ {
		c := s[i]
		if k := asciiClass[c]; k != 0 {
			if tok < 0 {
				tok = i
			}
			classes |= k
			continue
		}
		if c >= 0x80 {
			return false
		}
		if (c == '\'' || c == '-') && tok >= 0 && i+1 < len(s) && isASCIILetter(s[i+1]) {
			// Internal apostrophe/hyphen: stays part of the token.
			continue
		}
		if tok >= 0 {
			sc.Tokens = append(sc.Tokens, Token{Start: tok, End: i, Upper: classes&classUpper != 0})
			tok, classes = -1, 0
		}
		switch c {
		case '\n':
			start = sc.sentence(s, start, i+1)
		case '!', '?':
			// Absorb runs like "!!" or "?!".
			j := i
			for j+1 < len(s) && (s[j+1] == '!' || s[j+1] == '?') {
				j++
			}
			start = sc.sentence(s, start, j+1)
			i = j
		case '.':
			// Decimal number: 3.5
			if i > 0 && i+1 < len(s) && isASCIIDigit(s[i-1]) && isASCIIDigit(s[i+1]) {
				continue
			}
			// Ellipsis: treat "..." as one terminator.
			j := i
			for j+1 < len(s) && s[j+1] == '.' {
				j++
			}
			word := trailingWordASCII(s[start:i])
			if j == i && (isAbbrevFold(word) || isInitialASCII(word)) {
				continue
			}
			start = sc.sentence(s, start, j+1)
			i = j
		}
	}
	if tok >= 0 {
		sc.Tokens = append(sc.Tokens, Token{Start: tok, End: len(s), Upper: classes&classUpper != 0})
	}
	sc.sentence(s, start, len(s))
	return true
}

// sentence records s[start:end], trimmed of white space, as a sentence
// when anything is left, and returns end: the next sentence's start.
// Its tokens are those recorded since the previous sentence, because
// white space holds no token.
func (sc *Scan) sentence(s string, start, end int) int {
	a, b := start, end
	for a < b && asciiSpace[s[a]] {
		a++
	}
	for b > a && asciiSpace[s[b-1]] {
		b--
	}
	if a < b {
		from := 0
		if n := len(sc.Sentences); n > 0 {
			from = sc.Sentences[n-1].TokEnd
		}
		sc.Sentences = append(sc.Sentences, Sentence{Start: a, End: b, TokStart: from, TokEnd: len(sc.Tokens)})
	}
	return end
}

// asciiSpace is the ASCII white space strings.TrimSpace removes.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// tokenizeRunes is the rune-exact reference path, used whenever the
// input contains a non-ASCII byte.
func tokenizeRunes(s string) []string {
	var tokens []string
	var cur strings.Builder
	runes := []rune(s)
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, cur.String())
			cur.Reset()
		}
	}
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			cur.WriteRune(unicode.ToLower(r))
		case (r == '\'' || r == '-') && cur.Len() > 0 && i+1 < len(runes) && unicode.IsLetter(runes[i+1]):
			cur.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

// abbreviations that a period does not terminate a sentence after.
var abbreviations = map[string]bool{
	"dr": true, "mr": true, "mrs": true, "ms": true, "prof": true,
	"st": true, "jr": true, "sr": true, "vs": true, "etc": true,
	"e.g": true, "i.e": true, "inc": true, "ltd": true, "co": true,
	"approx": true, "dept": true, "apt": true, "no": true, "vol": true,
}

// SplitSentences splits raw review text into sentences. It terminates
// on '.', '!' and '?' unless the period follows a known abbreviation,
// a single capital letter (an initial), or sits between digits (a
// decimal number). Newlines also terminate sentences, which matches
// how review sites render paragraphs.
//
// Pure-ASCII input runs on ScanASCII, and the emitted sentences are
// trimmed substrings of s — the only allocation is the result slice.
// Non-ASCII input falls back to the rune-exact path; both produce
// identical output on ASCII input.
func SplitSentences(s string) []string {
	sc := scanPool.Get().(*Scan)
	defer scanPool.Put(sc)
	if !sc.ScanASCII(s) {
		return splitSentencesRunes(s)
	}
	if len(sc.Sentences) == 0 {
		return nil
	}
	out := make([]string, len(sc.Sentences))
	for i, st := range sc.Sentences {
		out[i] = s[st.Start:st.End]
	}
	return out
}

// trailingWordASCII is trailingWord over a byte string: the word
// (letters and internal periods, for "e.g") immediately preceding the
// current position, with at most one trailing period stripped. The
// result is a substring of s — no allocation.
func trailingWordASCII(s string) string {
	i := len(s)
	for i > 0 && (isASCIILetter(s[i-1]) || s[i-1] == '.') {
		i--
	}
	w := s[i:]
	if strings.HasSuffix(w, ".") {
		w = w[:len(w)-1]
	}
	return w
}

// isAbbrevFold reports whether word case-insensitively matches a known
// abbreviation, without allocating (the lowercase copy lives on the
// stack and the map lookup's string conversion is compiler-elided).
func isAbbrevFold(word string) bool {
	const maxAbbrev = 8 // longest entry is "approx" (6)
	if len(word) > maxAbbrev {
		return false
	}
	var buf [maxAbbrev]byte
	for i := 0; i < len(word); i++ {
		c := word[i]
		if c >= 'A' && c <= 'Z' {
			c |= 0x20
		}
		buf[i] = c
	}
	return abbreviations[string(buf[:len(word)])]
}

func isInitialASCII(word string) bool {
	return len(word) == 1 && word[0] >= 'A' && word[0] <= 'Z'
}

// splitSentencesRunes is the rune-exact reference path, used whenever
// the input contains a non-ASCII byte.
func splitSentencesRunes(s string) []string {
	var out []string
	runes := []rune(s)
	start := 0
	emit := func(end int) {
		seg := strings.TrimSpace(string(runes[start:end]))
		if seg != "" {
			out = append(out, seg)
		}
		start = end
	}
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		switch r {
		case '\n':
			emit(i + 1)
		case '!', '?':
			// Absorb runs like "!!" or "?!".
			j := i
			for j+1 < len(runes) && (runes[j+1] == '!' || runes[j+1] == '?') {
				j++
			}
			emit(j + 1)
			i = j
		case '.':
			// Decimal number: 3.5
			if i > 0 && i+1 < len(runes) && unicode.IsDigit(runes[i-1]) && unicode.IsDigit(runes[i+1]) {
				continue
			}
			// Ellipsis: treat "..." as one terminator.
			j := i
			for j+1 < len(runes) && runes[j+1] == '.' {
				j++
			}
			word := trailingWord(runes[start:i])
			if j == i && (abbreviations[strings.ToLower(word)] || isInitial(word)) {
				continue
			}
			emit(j + 1)
			i = j
		}
	}
	emit(len(runes))
	return out
}

// trailingWord returns the word immediately preceding the current
// position (letters and internal periods, for "e.g").
func trailingWord(runes []rune) string {
	end := len(runes)
	i := end
	for i > 0 && (unicode.IsLetter(runes[i-1]) || runes[i-1] == '.') {
		i--
	}
	return strings.TrimSuffix(string(runes[i:end]), ".")
}

func isInitial(word string) bool {
	r := []rune(word)
	return len(r) == 1 && unicode.IsUpper(r[0])
}

// stopwords is a compact English stopword list tuned for product and
// provider reviews (pronouns, determiners, auxiliaries, common
// prepositions). Sentiment-bearing words are intentionally absent.
var stopwords = map[string]bool{
	"a": true, "an": true, "the": true, "this": true, "that": true,
	"these": true, "those": true, "i": true, "me": true, "my": true,
	"mine": true, "we": true, "us": true, "our": true, "ours": true,
	"you": true, "your": true, "yours": true, "he": true, "him": true,
	"his": true, "she": true, "her": true, "hers": true, "it": true,
	"its": true, "they": true, "them": true, "their": true,
	"theirs": true, "what": true, "which": true, "who": true,
	"whom": true, "whose": true, "am": true, "is": true, "are": true,
	"was": true, "were": true, "be": true, "been": true, "being": true,
	"have": true, "has": true, "had": true, "having": true, "do": true,
	"does": true, "did": true, "doing": true, "will": true,
	"would": true, "shall": true, "should": true, "can": true,
	"could": true, "may": true, "might": true, "must": true, "of": true,
	"at": true, "by": true, "for": true, "with": true, "about": true,
	"against": true, "between": true, "into": true, "through": true,
	"during": true, "before": true, "after": true, "above": true,
	"below": true, "to": true, "from": true, "up": true, "down": true,
	"in": true, "out": true, "on": true, "off": true, "over": true,
	"under": true, "again": true, "further": true, "then": true,
	"once": true, "here": true, "there": true, "when": true,
	"where": true, "why": true, "how": true, "all": true, "any": true,
	"both": true, "each": true, "few": true, "more": true, "most": true,
	"other": true, "some": true, "such": true, "only": true,
	"own": true, "same": true, "so": true, "than": true, "too": true,
	"s": true, "t": true, "just": true, "don": true, "now": true,
	"and": true, "but": true, "if": true, "or": true, "because": true,
	"as": true, "until": true, "while": true, "also": true, "got": true,
	"get": true, "go": true, "went": true, "one": true, "two": true,
}

// IsStopword reports whether the (lowercased) token is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// RemoveStopwords filters a token slice in a new slice.
func RemoveStopwords(tokens []string) []string {
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if !stopwords[t] {
			out = append(out, t)
		}
	}
	return out
}
