package osars

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func TestParseGranularity(t *testing.T) {
	cases := map[string]Granularity{
		"pairs": Pairs, "sentences": Sentences, "": Sentences, "reviews": Reviews,
	}
	for in, want := range cases {
		got, err := ParseGranularity(in)
		if err != nil || got != want {
			t.Errorf("ParseGranularity(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseGranularity("words"); err == nil {
		t.Fatal("bad granularity accepted")
	}
}

func TestParseMethod(t *testing.T) {
	cases := map[string]Method{
		"greedy": MethodGreedy, "": MethodGreedy, "rr": MethodRR,
		"ilp": MethodILP, "local-search": MethodLocalSearch,
	}
	for in, want := range cases {
		got, err := ParseMethod(in)
		if err != nil || got != want {
			t.Errorf("ParseMethod(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseMethod("magic"); err == nil {
		t.Fatal("bad method accepted")
	}
}

// TestNewSummaryRendersSelection checks how Summarize renders the
// solver's selection, against the flattened corpus: pairs and their
// concept names, sentence texts and review IDs, in selection order
// (which is unsorted), for every method at every granularity and
// k = 1..12. Every field of the Summary except the solver's Cost is
// compared.
func TestNewSummaryRendersSelection(t *testing.T) {
	s := testSummarizer(t)
	var reviews []Review
	for i := 0; i < 6; i++ {
		for _, r := range testReviews() {
			r.ID = fmt.Sprintf("%s-%d", r.ID, i)
			reviews = append(reviews, r)
		}
	}
	item := s.AnnotateItem("p1", "Phone", reviews)
	rt := s.Runtime()
	pairs := item.Pairs()
	if item.NumPairs() != len(pairs) {
		t.Fatalf("NumPairs = %d, len(Pairs()) = %d", item.NumPairs(), len(pairs))
	}
	var texts []string
	for ri := range item.Reviews {
		for si := range item.Reviews[ri].Sentences {
			texts = append(texts, item.Reviews[ri].Sentences[si].Text)
		}
	}
	unsorted := false
	for _, g := range []Granularity{Pairs, Sentences, Reviews} {
		for _, m := range []Method{MethodGreedy, MethodRR, MethodILP, MethodLocalSearch} {
			for k := 1; k <= 12; k++ {
				got, err := s.Summarize(item, k, g, m)
				if err != nil {
					t.Fatal(err)
				}
				sel := got.Indices
				want := &Summary{
					ItemID: "p1", K: len(sel), Granularity: g, Method: m,
					Cost: got.Cost, NumPairs: len(pairs), Indices: sel,
					Ontology: rt.Name, OntologyVersion: rt.Version,
				}
				for _, u := range sel {
					switch g {
					case Pairs:
						want.Pairs = append(want.Pairs, pairs[u])
						want.Concepts = append(want.Concepts, rt.Metric.Ont.Name(pairs[u].Concept))
					case Sentences:
						want.Sentences = append(want.Sentences, texts[u])
					case Reviews:
						want.ReviewIDs = append(want.ReviewIDs, item.Reviews[u].ID)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v %v k %d: rendered %+v, want %+v", g, m, k, got, want)
				}
				unsorted = unsorted || !sort.IntsAreSorted(sel)
			}
		}
	}
	if !unsorted {
		t.Fatal("every selection was sorted; the test does not exercise selection order")
	}
}
