package pos

import "testing"

func TestTagWordLexicon(t *testing.T) {
	cases := map[string]Tag{
		"the": Det, "i": Pron, "of": Prep, "and": Conj, "not": Neg,
		"is": Verb, "great": Adj, "very": Adv, "battery": Noun,
	}
	for w, want := range cases {
		if got := TagWord(w); got != want {
			t.Errorf("TagWord(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestTagWordSuffixRules(t *testing.T) {
	cases := map[string]Tag{
		"suddenly":   Adv,
		"gorgeous":   Adj,
		"dependable": Adj,
		"customize":  Verb,
		"stuttering": Verb,
		"shattered":  Verb,
		"widget":     Noun, // unknown default
		"3":          Num,
		"4.5":        Num,
	}
	for w, want := range cases {
		if got := TagWord(w); got != want {
			t.Errorf("TagWord(%q) = %v, want %v", w, got, want)
		}
	}
}

func TestTagWordEmpty(t *testing.T) {
	if TagWord("") != Other {
		t.Fatal("empty word should be Other")
	}
}

func TestTagSentenceContextRepair(t *testing.T) {
	// "the charging" → charging must flip Verb→Noun after determiner.
	tags := TagSentence([]string{"the", "charging", "is", "slow"})
	if tags[1].Tag != Noun {
		t.Fatalf("charging after det = %v, want Noun", tags[1].Tag)
	}
	if tags[3].Tag != Adj {
		t.Fatalf("slow = %v, want Adj", tags[3].Tag)
	}
}

func TestTagSentenceLengths(t *testing.T) {
	if got := TagSentence(nil); len(got) != 0 {
		t.Fatal("nil sentence should give empty tags")
	}
	toks := []string{"great", "screen"}
	tags := TagSentence(toks)
	if len(tags) != 2 || tags[0].Word != "great" || tags[1].Word != "screen" {
		t.Fatalf("TagSentence = %v", tags)
	}
}

func TestTagStrings(t *testing.T) {
	want := map[Tag]string{
		Noun: "NOUN", Verb: "VERB", Adj: "ADJ", Adv: "ADV",
		Pron: "PRON", Det: "DET", Prep: "PREP", Conj: "CONJ",
		Num: "NUM", Neg: "NEG", Other: "OTHER",
	}
	for tag, s := range want {
		if tag.String() != s {
			t.Errorf("%d.String() = %q, want %q", tag, tag.String(), s)
		}
	}
}

func TestReviewSentenceEndToEnd(t *testing.T) {
	tags := TagSentence([]string{"the", "battery", "is", "not", "very", "good"})
	want := []Tag{Det, Noun, Verb, Neg, Adv, Adj}
	for i, w := range want {
		if tags[i].Tag != w {
			t.Errorf("token %d (%s) = %v, want %v", i, tags[i].Word, tags[i].Tag, w)
		}
	}
}

// TestTagWordBytesNoAlloc pins the property TagWord's doc promises:
// tagging a token lowered into a byte buffer, through string(b), does
// not allocate.
func TestTagWordBytesNoAlloc(t *testing.T) {
	buf := []byte("frobbing")
	var tag Tag
	if n := testing.AllocsPerRun(100, func() { tag = TagWord(string(buf)) }); n != 0 {
		t.Fatalf("TagWord(string(b)) allocates %v times", n)
	}
	if tag != Verb {
		t.Fatalf("TagWord(%q) = %v, want VERB", buf, tag)
	}
}
