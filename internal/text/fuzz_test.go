package text

import (
	"reflect"
	"strings"
	"testing"
	"unicode"
)

// FuzzTokenize: no panic, tokens are lowercase, and tokens contain no
// separator characters.
func FuzzTokenize(f *testing.F) {
	for _, seed := range []string{
		"", "Hello, World!", "don't stop", "touch-screen", "3.5 stars",
		"ünïcödé rev1ew", "a-", "-a", "''", "日本語のレビュー", "a\x00b",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				t.Fatal("empty token")
			}
			if tok != strings.ToLower(tok) {
				t.Fatalf("token %q not lowercase", tok)
			}
			for _, r := range tok {
				if unicode.IsSpace(r) || r == '.' || r == ',' || r == '!' {
					t.Fatalf("token %q contains separator", tok)
				}
			}
		}
	})
}

// FuzzSplitSentences: no panic, output pieces are trimmed and
// non-empty, and every non-space rune of the input appears in order in
// the concatenated output.
func FuzzSplitSentences(f *testing.F) {
	for _, seed := range []string{
		"", "One. Two!", "Dr. Smith is great.", "3.5 stars...",
		"Really?! Yes.", "line\nbreak", "…", ". . .",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		parts := SplitSentences(s)
		for _, p := range parts {
			if p == "" || strings.TrimSpace(p) != p {
				t.Fatalf("untrimmed or empty sentence %q", p)
			}
		}
		// Content preservation: non-space runes survive in order.
		var want, got []rune
		for _, r := range s {
			if !unicode.IsSpace(r) {
				want = append(want, r)
			}
		}
		for _, p := range parts {
			for _, r := range p {
				if !unicode.IsSpace(r) {
					got = append(got, r)
				}
			}
		}
		if string(want) != string(got) {
			t.Fatalf("content changed:\n in: %q\nout: %q", string(want), string(got))
		}
	})
}

// FuzzStem: no panic, output non-longer than input for ASCII words,
// and ≤2-rune words pass through unchanged.
func FuzzStem(f *testing.F) {
	for _, seed := range []string{
		"", "a", "running", "caresses", "sky", "yyyy", "ss", "ies",
		"agreed", "controlling", "ational",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out := Stem(s)
		if len(s) <= 2 && out != s {
			t.Fatalf("short word changed: %q → %q", s, out)
		}
		if len(out) > len(s)+1 {
			// Porter may add back an 'e' (step 1b), never more.
			t.Fatalf("stem grew: %q → %q", s, out)
		}
	})
}

// FuzzScanASCIIMatchesRunes ties ScanASCII to the rune-exact paths:
// on ASCII input its sentences are splitSentencesRunes's, each
// sentence's tokens lowered are tokenizeRunes of that sentence, Upper
// is set exactly on tokens with an uppercase letter, and Tokenize and
// SplitSentences agree with the rune paths. Non-ASCII input must be
// refused.
func FuzzScanASCIIMatchesRunes(f *testing.F) {
	for _, seed := range []string{
		"", "Hello, World!", "don't stop", "touch-screen", "3.5 stars",
		"ünïcödé rev1ew", "a-", "-a", "''", "a\x00b", "One. Two!",
		"Dr. Smith is great.", "3.5 stars...", "Really?! Yes.",
		"line\nbreak", ". . .", "J. Doe e.g. Inc. ok", "Wait... what. Ok",
		"  The STAFF was Rude!!  \n\n Not-so-GREAT  ", "x-'y z'-w A. B.C.",
	} {
		f.Add(seed)
	}
	var sc Scan
	f.Fuzz(func(t *testing.T, s string) {
		ascii := true
		for i := 0; i < len(s); i++ {
			ascii = ascii && s[i] < 0x80
		}
		if ok := sc.ScanASCII(s); ok != ascii {
			t.Fatalf("ScanASCII(%q) = %v, want %v", s, ok, ascii)
		}
		if !ascii {
			return
		}
		if got, want := SplitSentences(s), splitSentencesRunes(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("SplitSentences(%q) = %q, rune path %q", s, got, want)
		}
		if got, want := Tokenize(s), tokenizeRunes(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, rune path %q", s, got, want)
		}
		sents := splitSentencesRunes(s)
		if len(sc.Sentences) != len(sents) {
			t.Fatalf("%q: %d sentences, rune path %d", s, len(sc.Sentences), len(sents))
		}
		next := 0
		for i, st := range sc.Sentences {
			if got := s[st.Start:st.End]; got != sents[i] {
				t.Fatalf("%q: sentence %d = %q, rune path %q", s, i, got, sents[i])
			}
			if st.TokStart != next {
				t.Fatalf("%q: sentence %d tokens start at %d, want %d", s, i, st.TokStart, next)
			}
			next = st.TokEnd
			want := tokenizeRunes(sents[i])
			toks := sc.Tokens[st.TokStart:st.TokEnd]
			if len(toks) != len(want) {
				t.Fatalf("%q: sentence %d has %d tokens, rune path %d", s, i, len(toks), len(want))
			}
			for j, tk := range toks {
				raw := s[tk.Start:tk.End]
				if got := string(AppendLowerASCII(nil, raw)); got != want[j] {
					t.Fatalf("%q: token %q, rune path %q", s, got, want[j])
				}
				if tk.Upper != (strings.ToLower(raw) != raw) {
					t.Fatalf("%q: token %q Upper = %v", s, raw, tk.Upper)
				}
			}
		}
		if next != len(sc.Tokens) {
			t.Fatalf("%q: %d tokens outside sentences", s, len(sc.Tokens)-next)
		}
	})
}
