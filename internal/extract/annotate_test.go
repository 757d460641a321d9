package extract_test

import (
	"fmt"
	"reflect"
	"testing"

	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/ontoreg"
	"osars/internal/sentiment"
	"osars/internal/text"
)

// checkAnnotate compares p.AnnotateReview with the reference pipeline
// on every text. When onePass is set, it also checks that no
// sentence's Pairs has spare capacity, which a caller's append would
// write into the next sentence's pairs.
func checkAnnotate(t *testing.T, p *extract.Pipeline, ref *extract.ReferencePipeline, texts []string, onePass bool) {
	t.Helper()
	for i, raw := range texts {
		id := fmt.Sprintf("r%d", i)
		got := p.AnnotateReview(id, raw, 0.25)
		want := ref.AnnotateReview(id, raw, 0.25)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("review %q:\n got %+v\nwant %+v", raw, got, want)
		}
		for _, s := range got.Sentences {
			if onePass && cap(s.Pairs) != len(s.Pairs) {
				t.Fatalf("review %q: sentence %q has Pairs len %d cap %d", raw, s.Text, len(s.Pairs), cap(s.Pairs))
			}
		}
	}
}

func corpusTexts(c *dataset.Corpus) []string {
	var texts []string
	for _, it := range c.Items {
		for _, r := range it.Reviews {
			texts = append(texts, r.Text)
		}
	}
	return texts
}

// edgeCases exercise the scanner and look-back rules the generators
// rarely hit: mixed case, hyphens, apostrophes, abbreviations,
// initials, decimals, ellipses, !? runs, newlines, intensifiers and
// negators at every distance, unknown words of every tag, and
// multi-word concepts split across sentences.
var edgeCases = []string{
	"",
	"   \n\t ",
	"The SCREEN is Excellent. The Battery Life is AWFUL!",
	"Battery life is not great... but the screen is very, very good?!",
	"Not very good battery. Never really GREAT camera!! No camera flash",
	"Dr. Smith said the battery. Life is good. J. Doe's screen-size was e.g. fine.",
	"It costs 3.5 dollars. 4.0 stars for the Camera... Great zoom!!!",
	"battery\nlife is great\r\nscreen size: Terrible",
	"Xyzzy great battery. XYZZY Great screen. Running great camera.",
	"Supercalifragilisticexpialidociousness GREAT battery. AVERYLONGUNKNOWNUPPERCASETOKENINDEED great zoom.",
	"don't love the screen. isn't it GOOD? won't-charge battery wasn't bad",
	"touch-screen and touch screen and touchscreen are fine; fast charging is fast.",
	"Low light performance: TERRIBLE. low-light performance is slightly better than the front camera.",
	"The screen. Size is good.",
	"screen screen screen battery life battery life life",
	"'quoted' -dash- trailing- 'apostrophe' the camera's zoom is super sharp",
	"?!?!... . . ! ? \n\n\n",
	"Great.Battery.Awful!Camera?Zoom",
	"Very very very very good battery",
	"Hardly great, barely ok, somewhat pleasing, NOT bad at ALL speaker.",
	"Not Xyzzy great battery. never Running GOOD zoom! not the great screen",
}

// TestAnnotateMatchesReference pins the one-pass token-ID annotator to
// the pointer-trie []string pipeline, and each fallback path (the
// non-ASCII text, stemmed-matcher, Ridge and struct-literal inputs the
// one-pass path does not handle) to the same reference.
func TestAnnotateMatchesReference(t *testing.T) {
	lex := sentiment.Lexicon{}
	t.Run("generators", func(t *testing.T) {
		for _, mk := range []func(int64) dataset.CorpusConfig{
			dataset.SmallDoctorConfig, dataset.SmallCellPhoneConfig, dataset.SmallRestaurantConfig,
		} {
			for seed := int64(1); seed <= 3; seed++ {
				c := dataset.Generate(mk(seed))
				p := extract.NewPipeline(extract.NewMatcher(c.Ont), nil)
				checkAnnotate(t, p, extract.NewReferencePipeline(c.Ont, extract.MatcherOptions{}, lex), corpusTexts(c), true)
			}
		}
	})
	t.Run("table1-doctor", func(t *testing.T) {
		cfg := dataset.DoctorConfig(7)
		cfg.NumItems, cfg.TotalReviews = 3, 600
		c := dataset.Generate(cfg)
		p := extract.NewPipeline(extract.NewMatcher(c.Ont), lex)
		checkAnnotate(t, p, extract.NewReferencePipeline(c.Ont, extract.MatcherOptions{}, lex), corpusTexts(c), true)
	})
	phone := dataset.Generate(dataset.SmallCellPhoneConfig(4))
	texts := append(corpusTexts(phone)[:200], edgeCases...)
	t.Run("ontoreg-table", func(t *testing.T) {
		// A custom table that overlaps concept tokens, intensifiers,
		// negators and the built-in lexicon, and names words no token
		// can equal (uppercase, spaces).
		table := map[string]float64{
			"great": 0.2, "awful": -0.9, "battery": -0.3, "zoom": 0.4,
			"very": 0.5, "not": -0.1, "fast": 0.6, "touch-screen": 0.7,
			"Excellent": 1, "so so": -0.2, "xyzzy": 0.3, "don't": -0.4,
		}
		ent, err := ontoreg.NewEntry("phone", phone.Ont, table, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := ontoreg.Decode(ent.Payload())
		if err != nil {
			t.Fatal(err)
		}
		p := loaded.Runtime().Pipeline
		ref := extract.NewReferencePipeline(phone.Ont, extract.MatcherOptions{}, sentiment.Lexicon{Table: loaded.Lexicon})
		checkAnnotate(t, p, ref, texts, true)
	})
	t.Run("edge-cases", func(t *testing.T) {
		p := extract.NewPipeline(extract.NewMatcher(phone.Ont), lex)
		checkAnnotate(t, p, extract.NewReferencePipeline(phone.Ont, extract.MatcherOptions{}, lex), texts, true)
	})
	t.Run("fallbacks", func(t *testing.T) {
		ref := extract.NewReferencePipeline(phone.Ont, extract.MatcherOptions{}, lex)
		nonASCII := []string{
			"The screen is ÉXCELLENT. The battery life is awful — really awful!",
			"Grüße: great camera… terrible zoom. 电池 battery is good",
		}
		checkAnnotate(t, extract.NewPipeline(extract.NewMatcher(phone.Ont), lex), ref, nonASCII, false)
		checkAnnotate(t, &extract.Pipeline{Matcher: extract.NewMatcher(phone.Ont), Estimator: lex}, ref, texts, false)

		stem := extract.MatcherOptions{Stem: true}
		checkAnnotate(t, extract.NewPipeline(extract.NewMatcherWithOptions(phone.Ont, stem), lex),
			extract.NewReferencePipeline(phone.Ont, stem, lex), texts, false)

		var examples []sentiment.Example
		for _, it := range phone.Items {
			for _, r := range it.Reviews {
				for _, s := range text.SplitSentences(r.Text) {
					examples = append(examples, sentiment.Example{Tokens: text.Tokenize(s), Target: r.Rating})
				}
			}
		}
		ridge, err := sentiment.TrainRidge(examples, sentiment.RidgeOptions{Dim: 1 << 10, MaxIter: 20})
		if err != nil {
			t.Fatal(err)
		}
		checkAnnotate(t, extract.NewPipeline(extract.NewMatcher(phone.Ont), ridge),
			extract.NewReferencePipeline(phone.Ont, extract.MatcherOptions{}, ridge), texts, false)
	})
}

// FuzzAnnotateMatchesReference compares the one-pass annotator with
// the reference pipeline on arbitrary text, under the doctor and
// cell-phone ontologies. The seeds are internal/text's fuzz seeds, the
// edge cases above and generated reviews.
func FuzzAnnotateMatchesReference(f *testing.F) {
	for _, seed := range []string{
		"", "Hello, World!", "don't stop", "touch-screen", "3.5 stars",
		"ünïcödé rev1ew", "a-", "-a", "''", "日本語のレビュー", "a\x00b",
		"One. Two!", "Dr. Smith is great.", "3.5 stars...",
		"Really?! Yes.", "line\nbreak", "…", ". . .",
	} {
		f.Add(seed)
	}
	for _, s := range edgeCases {
		f.Add(s)
	}
	doctor := dataset.Generate(dataset.SmallDoctorConfig(1))
	phone := dataset.Generate(dataset.SmallCellPhoneConfig(1))
	for _, c := range []*dataset.Corpus{doctor, phone} {
		for _, s := range corpusTexts(c)[:20] {
			f.Add(s)
		}
	}
	type pair struct {
		p   *extract.Pipeline
		ref *extract.ReferencePipeline
	}
	var pipes []pair
	for _, c := range []*dataset.Corpus{doctor, phone} {
		pipes = append(pipes, pair{
			extract.NewPipeline(extract.NewMatcher(c.Ont), nil),
			extract.NewReferencePipeline(c.Ont, extract.MatcherOptions{}, sentiment.Lexicon{}),
		})
	}
	f.Fuzz(func(t *testing.T, raw string) {
		for _, pp := range pipes {
			got := pp.p.AnnotateReview("r", raw, 0)
			want := pp.ref.AnnotateReview("r", raw, 0)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("review %q:\n got %+v\nwant %+v", raw, got, want)
			}
		}
	})
}
