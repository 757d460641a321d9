package sentiment

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"osars/internal/pos"
	"osars/internal/text"
)

func TestLexiconBasicPolarity(t *testing.T) {
	var l Lexicon
	cases := []struct {
		sentence string
		sign     float64 // expected sign, 0 = neutral
	}{
		{"The screen is excellent", +1},
		{"The battery is terrible", -1},
		{"I visited on Tuesday", 0},
		{"Great doctor, great staff", +1},
		{"The screen cracked and the speaker died", -1},
	}
	for _, c := range cases {
		got := l.Score(c.sentence)
		switch {
		case c.sign > 0 && got <= 0:
			t.Errorf("Score(%q) = %v, want positive", c.sentence, got)
		case c.sign < 0 && got >= 0:
			t.Errorf("Score(%q) = %v, want negative", c.sentence, got)
		case c.sign == 0 && got != 0:
			t.Errorf("Score(%q) = %v, want 0", c.sentence, got)
		}
	}
}

func TestLexiconGradedStrength(t *testing.T) {
	var l Lexicon
	weak := l.Score("The screen is decent")
	strong := l.Score("The screen is excellent")
	if !(strong > weak && weak > 0) {
		t.Fatalf("graded strengths wrong: excellent=%v decent=%v", strong, weak)
	}
	mild := l.Score("The battery is mediocre")
	severe := l.Score("The battery is atrocious")
	if !(severe < mild && mild < 0) {
		t.Fatalf("graded negatives wrong: atrocious=%v mediocre=%v", severe, mild)
	}
}

func TestLexiconIntensifier(t *testing.T) {
	var l Lexicon
	plain := l.Score("The phone is good")
	boosted := l.Score("The phone is very good")
	damped := l.Score("The phone is somewhat good")
	if !(boosted > plain && plain > damped && damped > 0) {
		t.Fatalf("intensifiers wrong: very=%v plain=%v somewhat=%v", boosted, plain, damped)
	}
}

func TestLexiconNegation(t *testing.T) {
	var l Lexicon
	pos := l.Score("The camera is good")
	neg := l.Score("The camera is not good")
	if pos <= 0 || neg >= 0 {
		t.Fatalf("negation flip failed: good=%v not-good=%v", pos, neg)
	}
	// Shifted negation: "not good" is weaker than "awful".
	if math.Abs(neg) >= math.Abs(l.Score("The camera is awful")) {
		t.Fatalf("negated positive should be weaker than strong negative")
	}
	// Negation across the window boundary does not flip.
	far := l.Score("not the one with the slightest chance of a good outcome")
	_ = far // just must not panic; window semantics checked above
}

func TestLexiconNegatedNegative(t *testing.T) {
	var l Lexicon
	// "not bad" must be (mildly) positive.
	if got := l.Score("It is not bad"); got <= 0 {
		t.Fatalf("Score(not bad) = %v, want positive", got)
	}
}

func TestLexiconClampAndBounds(t *testing.T) {
	var l Lexicon
	got := l.Score("extremely awesome absolutely perfect incredibly amazing")
	if got > 1 || got < -1 {
		t.Fatalf("score out of bounds: %v", got)
	}
	if got < 0.9 {
		t.Fatalf("gushing review scored only %v", got)
	}
}

func TestQuickLexiconBounds(t *testing.T) {
	words := []string{"great", "terrible", "not", "very", "screen",
		"battery", "the", "is", "good", "bad", "somewhat", "excellent"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12)
		toks := make([]string, n)
		for i := range toks {
			toks[i] = words[rng.Intn(len(words))]
		}
		s := Lexicon{}.EstimateSentence(toks)
		return s >= -1 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHasOpinionWordAndPolarity(t *testing.T) {
	if !HasOpinionWord([]string{"the", "great", "phone"}) {
		t.Fatal("HasOpinionWord missed 'great'")
	}
	if HasOpinionWord([]string{"the", "phone"}) {
		t.Fatal("HasOpinionWord false positive")
	}
	if v, ok := Polarity("excellent"); !ok || v != 1.0 {
		t.Fatalf("Polarity(excellent) = %v,%v", v, ok)
	}
	if _, ok := Polarity("phone"); ok {
		t.Fatal("Polarity(phone) should miss")
	}
	seeds := SeedOpinionWords()
	if len(seeds) < 100 {
		t.Fatalf("seed lexicon too small: %d", len(seeds))
	}
	seeds["great"] = -5 // must be a copy
	if v, _ := Polarity("great"); v == -5 {
		t.Fatal("SeedOpinionWords leaked internal map")
	}
}

func trainSet() []Example {
	positives := []string{
		"this phone is excellent and the screen is amazing",
		"great battery life and wonderful display",
		"the doctor was caring and thorough",
		"fantastic camera, love the pictures",
		"best purchase ever, highly recommend",
		"superb build quality and fast performance",
		"staff was friendly and helpful",
		"very happy with the treatment",
	}
	negatives := []string{
		"this phone is terrible and the screen is awful",
		"horrible battery life and poor display",
		"the doctor was rude and dismissive",
		"worst purchase ever, avoid it",
		"the camera is blurry and the speaker crackles",
		"cheap flimsy build and slow performance",
		"staff was unhelpful and the wait was long",
		"very disappointed with the treatment",
	}
	var ex []Example
	for _, s := range positives {
		ex = append(ex, Example{Tokens: text.Tokenize(s), Target: 1})
	}
	for _, s := range negatives {
		ex = append(ex, Example{Tokens: text.Tokenize(s), Target: -1})
	}
	return ex
}

func TestRidgeLearnsPolarity(t *testing.T) {
	r, err := TrainRidge(trainSet(), RidgeOptions{Stem: true})
	if err != nil {
		t.Fatal(err)
	}
	pos := r.EstimateSentence(text.Tokenize("excellent screen and great battery"))
	neg := r.EstimateSentence(text.Tokenize("terrible screen and awful battery"))
	if pos <= 0 {
		t.Fatalf("positive test sentence scored %v", pos)
	}
	if neg >= 0 {
		t.Fatalf("negative test sentence scored %v", neg)
	}
	if pos <= neg {
		t.Fatalf("ordering wrong: pos %v ≤ neg %v", pos, neg)
	}
}

func TestRidgeGeneralizesViaStemming(t *testing.T) {
	r, err := TrainRidge(trainSet(), RidgeOptions{Stem: true})
	if err != nil {
		t.Fatal(err)
	}
	// "recommending" never appears, but "recommend" does; stemming
	// should map them together.
	got := r.EstimateSentence(text.Tokenize("highly recommending this"))
	if got <= 0 {
		t.Fatalf("stemmed generalization failed: %v", got)
	}
}

func TestRidgeBoundsAndEmpty(t *testing.T) {
	r, err := TrainRidge(trainSet(), RidgeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.EstimateSentence(nil); got < -1 || got > 1 {
		t.Fatalf("empty sentence out of bounds: %v", got)
	}
	for _, s := range []string{"screen", "awful awful awful awful", "zzz unknown tokens"} {
		if got := r.EstimateSentence(text.Tokenize(s)); got < -1 || got > 1 {
			t.Fatalf("out of bounds for %q: %v", s, got)
		}
	}
}

func TestRidgeRejectsEmptyTraining(t *testing.T) {
	if _, err := TrainRidge(nil, RidgeOptions{}); err == nil {
		t.Fatal("expected error for empty training set")
	}
}

func TestRidgeBiasIsMeanForConstantTargets(t *testing.T) {
	ex := []Example{
		{Tokens: []string{"alpha"}, Target: 0.5},
		{Tokens: []string{"beta"}, Target: 0.5},
	}
	r, err := TrainRidge(ex, RidgeOptions{Lambda: 100}) // heavy shrinkage → ~bias only
	if err != nil {
		t.Fatal(err)
	}
	got := r.EstimateSentence([]string{"gamma-unseen"})
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("unseen-token prediction %v, want ≈ bias 0.5", got)
	}
}

func TestEstimatorInterface(t *testing.T) {
	var _ Estimator = Lexicon{}
	r, err := TrainRidge(trainSet(), RidgeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var _ Estimator = r
}

// TestCompiledMatchesEstimateSentence ties Compiled.EstimateIDs to
// EstimateSentence bit for bit, on random sentences of opinion words,
// intensifiers, negators, nouns, verbs and words outside the
// vocabulary, under the built-in table and a custom one.
func TestCompiledMatchesEstimateSentence(t *testing.T) {
	var words []string
	for _, m := range []map[string]float64{opinionLexicon, intensifiers} {
		for w := range m {
			words = append(words, w)
		}
	}
	for w := range negators {
		words = append(words, w)
	}
	words = append(words, "battery", "staff", "is", "was", "the", "and", "running",
		"quickly", "xyzzy", "frobbed", "zorp", "meh")
	sort.Strings(words)
	rng := rand.New(rand.NewSource(1))
	for _, l := range []Lexicon{{}, {Table: map[string]float64{"meh": -0.2, "battery": 0.4, "very": 0.5, "not": -0.1}}} {
		// The vocabulary starts with a few unrelated words, as a
		// matcher's would, and knows only some of the test words.
		vocab := map[string]int32{"battery": 0, "screen": 1, "wait": 2, "time": 3}
		c := l.Compile(vocab)
		for trial := 0; trial < 5000; trial++ {
			toks := make([]string, rng.Intn(9))
			ids := make([]int32, len(toks))
			for i := range toks {
				toks[i] = words[rng.Intn(len(words))]
				t, ok := vocab[toks[i]]
				if !ok {
					t = -1
				}
				ids[i] = t
			}
			got := c.EstimateIDs(ids, func(i int) bool {
				tg := pos.TagWord(toks[i])
				return tg == pos.Noun || tg == pos.Verb
			})
			if want := l.EstimateSentence(toks); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("table %v, %q: EstimateIDs = %v, EstimateSentence = %v", l.Table, toks, got, want)
			}
		}
	}
}
