package extract

import (
	"fmt"
	"reflect"
	"testing"

	"osars/internal/dataset"
	"osars/internal/sentiment"
)

// testRaws generates a realistic review corpus for the parallel
// annotation tests.
func testRaws(t testing.TB) (*Pipeline, []RawReview) {
	t.Helper()
	cfg := dataset.DoctorConfig(11)
	cfg.NumItems = 1
	cfg.TotalReviews = 50
	cfg.MinReviews = 50
	cfg.MaxReviews = 50
	c := dataset.Generate(cfg)
	p := NewPipeline(NewMatcher(c.Ont), sentiment.Lexicon{})
	var raws []RawReview
	for _, r := range c.Items[0].Reviews {
		raws = append(raws, RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating})
	}
	return p, raws
}

// TestPipelineParallelMatchesSequential is the concurrency-invariant
// test the Pipeline doc comment points at: annotation fanned out over
// any worker count must be byte-identical to the sequential loop. Run
// under -race this also exercises that Matcher and the lexicon
// Estimator really are read-only during annotation.
func TestPipelineParallelMatchesSequential(t *testing.T) {
	p, raws := testRaws(t)
	want := p.AnnotateReviews(raws, 1)
	for _, workers := range []int{0, 2, 3, 7, 16, len(raws), len(raws) + 9} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			got := p.AnnotateReviews(raws, workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parallel annotation (workers=%d) differs from sequential", workers)
			}
		})
	}
}

// TestAnnotateItemParallelMatchesSequential covers the Item-level
// wrapper used by Summarizer.AnnotateItem.
func TestAnnotateItemParallelMatchesSequential(t *testing.T) {
	p, raws := testRaws(t)
	want := p.AnnotateItem("item-1", "Item One", raws)
	got := p.AnnotateItemParallel("item-1", "Item One", raws, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("AnnotateItemParallel differs from AnnotateItem")
	}
}

// TestAnnotateReviewsEmpty pins the edge cases: no reviews, and more
// workers than reviews.
func TestAnnotateReviewsEmpty(t *testing.T) {
	p, _ := testRaws(t)
	if got := p.AnnotateReviews(nil, 8); len(got) != 0 {
		t.Fatalf("AnnotateReviews(nil) = %v, want empty", got)
	}
	one := []RawReview{{ID: "r1", Text: "Great doctor. Friendly staff!", Rating: 1}}
	got := p.AnnotateReviews(one, 8)
	want := p.AnnotateReviews(one, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("single review with many workers differs from sequential")
	}
}

type constEstimator float64

func (c constEstimator) EstimateSentence([]string) float64 { return float64(c) }

// TestNewPipelineCompilesLexiconOnly pins which pipelines take the
// one-pass path: NewPipeline with a sentiment.Lexicon (or the nil
// default) over an unstemmed matcher. A stemmed matcher, another
// estimator and a struct literal keep the []string path.
func TestNewPipelineCompilesLexiconOnly(t *testing.T) {
	o, _ := phoneOnt(t)
	m := NewMatcher(o)
	stemmed := NewMatcherWithOptions(o, MatcherOptions{Stem: true})
	for _, c := range []struct {
		name string
		p    *Pipeline
		want bool
	}{
		{"default", NewPipeline(m, nil), true},
		{"lexicon", NewPipeline(m, sentiment.Lexicon{Table: map[string]float64{"meh": -0.2}}), true},
		{"stemmed", NewPipeline(stemmed, nil), false},
		{"estimator", NewPipeline(m, constEstimator(0.5)), false},
		{"literal", &Pipeline{Matcher: m, Estimator: sentiment.Lexicon{}}, false},
	} {
		if got := c.p.lex != nil; got != c.want {
			t.Errorf("%s: one-pass path = %v, want %v", c.name, got, c.want)
		}
	}
}
