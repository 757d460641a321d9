package osars

import (
	"math"
	"strings"
	"testing"

	"osars/internal/dataset"
	"osars/internal/ontology"
	"osars/internal/sentiment"
)

func testSummarizer(t *testing.T) *Summarizer {
	t.Helper()
	s, err := New(Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testReviews() []Review {
	return []Review{
		{ID: "r1", Text: "The screen is excellent. The battery is awful. Shipping was slow.", Rating: 0},
		{ID: "r2", Text: "Amazing screen resolution! The battery life is terrible.", Rating: 0},
		{ID: "r3", Text: "Great camera. The price is decent. Screen looks wonderful.", Rating: 0.5},
		{ID: "r4", Text: "The speaker is awful and the battery is bad.", Rating: -1},
		{ID: "r5", Text: "Battery drains overnight which is disappointing.", Rating: -0.5},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil ontology accepted")
	}
	for _, eps := range []float64{-1, math.NaN(), math.Inf(1)} {
		// Both the default runtime and a custom Estimator's runtime
		// must reject it: with a NaN ε, Definition 1's |s1 − s2| ≤ ε
		// never holds, so only the root would cover anything.
		for _, est := range []Estimator{nil, sentiment.Lexicon{}} {
			if _, err := New(Config{Ontology: dataset.CellPhoneOntology(), Epsilon: eps, Estimator: est}); err == nil {
				t.Fatalf("epsilon %v accepted (estimator %T)", eps, est)
			}
		}
	}
	s, err := New(Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	if s.Metric().Epsilon != 0.5 {
		t.Fatalf("default epsilon = %v, want 0.5", s.Metric().Epsilon)
	}
}

func TestAnnotateItemExtractsPairs(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p1", "Phone", testReviews())
	if len(item.Reviews) != 5 {
		t.Fatalf("reviews = %d", len(item.Reviews))
	}
	pairs := item.Pairs()
	if len(pairs) < 8 {
		t.Fatalf("extracted only %d pairs", len(pairs))
	}
	// Both positive screen and negative battery sentiments must appear.
	scr, _ := s.Metric().Ont.Lookup("screen")
	bat, _ := s.Metric().Ont.Lookup("battery")
	var sawPosScreen, sawNegBattery bool
	for _, p := range pairs {
		if p.Concept == scr && p.Sentiment > 0 {
			sawPosScreen = true
		}
		if p.Concept == bat && p.Sentiment < 0 {
			sawNegBattery = true
		}
	}
	if !sawPosScreen || !sawNegBattery {
		t.Fatalf("missing expected pairs (posScreen=%v negBattery=%v)", sawPosScreen, sawNegBattery)
	}
}

func TestSummarizeAllGranularitiesAndMethods(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p1", "Phone", testReviews())
	for _, g := range []Granularity{Pairs, Sentences, Reviews} {
		for _, m := range []Method{MethodGreedy, MethodRR, MethodILP} {
			sum, err := s.Summarize(item, 3, g, m)
			if err != nil {
				t.Fatalf("%v/%v: %v", g, m, err)
			}
			if len(sum.Indices) != 3 {
				t.Fatalf("%v/%v: %d indices", g, m, len(sum.Indices))
			}
			switch g {
			case Pairs:
				if len(sum.Pairs) != 3 || len(sum.Sentences) != 0 {
					t.Fatalf("%v/%v: wrong payload %+v", g, m, sum)
				}
			case Sentences:
				if len(sum.Sentences) != 3 || len(sum.Pairs) != 0 {
					t.Fatalf("%v/%v: wrong payload %+v", g, m, sum)
				}
			case Reviews:
				if len(sum.ReviewIDs) != 3 {
					t.Fatalf("%v/%v: wrong payload %+v", g, m, sum)
				}
			}
			if sum.Cost < 0 {
				t.Fatalf("%v/%v: negative cost", g, m)
			}
		}
	}
}

func TestSummarizeILPNeverWorse(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p1", "Phone", testReviews())
	for _, g := range []Granularity{Pairs, Sentences, Reviews} {
		greedy, err := s.Summarize(item, 2, g, MethodGreedy)
		if err != nil {
			t.Fatal(err)
		}
		ilp, err := s.Summarize(item, 2, g, MethodILP)
		if err != nil {
			t.Fatal(err)
		}
		if ilp.Cost > greedy.Cost+1e-9 {
			t.Fatalf("%v: ILP cost %v > greedy %v", g, ilp.Cost, greedy.Cost)
		}
	}
}

func TestSummarizeKClampedAndErrors(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p1", "Phone", testReviews())
	sum, err := s.Summarize(item, 100, Reviews, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.ReviewIDs) != 5 {
		t.Fatalf("clamp failed: %d reviews", len(sum.ReviewIDs))
	}
	if _, err := s.Summarize(item, -1, Pairs, MethodGreedy); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := s.Summarize(item, 1, Pairs, Method(99)); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := s.Summarize(item, 2, Granularity(7), MethodGreedy); err == nil {
		t.Fatal("unknown granularity accepted")
	}
}

func TestSummaryIsOntologyAware(t *testing.T) {
	// Build an item where "screen" (parent, positive) covers "screen
	// resolution" (positive) — a 2-pair summary should not waste both
	// slots on the redundant screen concepts, but cover battery too.
	s := testSummarizer(t)
	item := s.AnnotateItem("p1", "Phone", []Review{
		{ID: "r1", Text: "The screen is great. The screen resolution is great. The battery is awful."},
		{ID: "r2", Text: "The screen is great. The screen resolution is great. The battery is awful."},
		{ID: "r3", Text: "The battery is awful."},
	})
	sum, err := s.Summarize(item, 2, Pairs, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	scr, _ := s.Metric().Ont.Lookup("screen")
	bat, _ := s.Metric().Ont.Lookup("battery")
	var names []string
	sawScreenSide, sawBattery := false, false
	for _, p := range sum.Pairs {
		names = append(names, s.DescribePair(p))
		if p.Concept == scr {
			sawScreenSide = true
		}
		if p.Concept == bat {
			sawBattery = true
		}
	}
	if !sawScreenSide || !sawBattery {
		t.Fatalf("redundant summary %v: want one screen-side pair and battery", names)
	}
}

func TestDescribePair(t *testing.T) {
	s := testSummarizer(t)
	id, _ := s.Metric().Ont.Lookup("battery")
	got := s.DescribePair(Pair{Concept: id, Sentiment: -0.75})
	if !strings.Contains(got, "battery") || !strings.Contains(got, "-0.75") {
		t.Fatalf("DescribePair = %q", got)
	}
}

func TestMethodString(t *testing.T) {
	if MethodGreedy.String() != "greedy" || MethodRR.String() != "randomized-rounding" || MethodILP.String() != "ilp" {
		t.Fatal("method names wrong")
	}
	if Method(9).String() == "" {
		t.Fatal("unknown method should stringify")
	}
}

func TestCustomOntology(t *testing.T) {
	var b ontology.Builder
	root := b.AddConcept("care")
	b.Child(root, "bedside manner")
	b.Child(root, "wait time", "waiting time")
	ont, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Ontology: ont})
	if err != nil {
		t.Fatal(err)
	}
	item := s.AnnotateItem("d1", "Dr. Example", []Review{
		{ID: "r1", Text: "Wonderful bedside manner. The waiting time was terrible."},
	})
	sum, err := s.Summarize(item, 2, Pairs, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Pairs) != 2 {
		t.Fatalf("pairs = %v", sum.Pairs)
	}
}

func TestMethodLocalSearch(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p1", "Phone", testReviews())
	for _, g := range []Granularity{Pairs, Sentences, Reviews} {
		greedy, err := s.Summarize(item, 2, g, MethodGreedy)
		if err != nil {
			t.Fatal(err)
		}
		ls, err := s.Summarize(item, 2, g, MethodLocalSearch)
		if err != nil {
			t.Fatal(err)
		}
		if ls.Cost > greedy.Cost+1e-9 {
			t.Fatalf("%v: local search %v worse than greedy %v", g, ls.Cost, greedy.Cost)
		}
		if len(ls.Indices) != 2 {
			t.Fatalf("%v: selected %v", g, ls.Indices)
		}
	}
	if MethodLocalSearch.String() != "local-search" {
		t.Fatal("method name wrong")
	}
}
