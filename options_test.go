package osars

import (
	"fmt"
	"math/rand"
	"reflect"
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

func TestSummarizeWithOptionsDefaultsMatchSummarize(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p1", "Phone", testReviews())
	plain, err := s.Summarize(item, 3, Sentences, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := s.SummarizeWithOptions(item, Options{K: 3, Granularity: Sentences, Method: MethodGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Cost != opt.Cost || len(plain.Sentences) != len(opt.Sentences) {
		t.Fatalf("options path diverged: %v vs %v", plain.Cost, opt.Cost)
	}
}

func TestSummarizeWithOptionsQuantized(t *testing.T) {
	s := testSummarizer(t)
	// Duplicate reviews create exactly duplicated pairs, so the
	// quantized selection must cost the same as the plain one.
	reviews := append(testReviews(), testReviews()...)
	item := s.AnnotateItem("p1", "Phone", reviews)
	plain, err := s.SummarizeWithOptions(item, Options{K: 3, Granularity: Pairs, Method: MethodGreedy})
	if err != nil {
		t.Fatal(err)
	}
	quant, err := s.SummarizeWithOptions(item, Options{K: 3, Granularity: Pairs, Method: MethodGreedy, QuantizeGrid: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if quant.Cost != plain.Cost {
		t.Fatalf("quantized cost %v != plain %v", quant.Cost, plain.Cost)
	}
	if len(quant.Pairs) != 3 {
		t.Fatalf("quantized pairs = %v", quant.Pairs)
	}
	// Indices refer to original pair order.
	all := item.Pairs()
	for i, idx := range quant.Indices {
		if idx < 0 || idx >= len(all) {
			t.Fatalf("index out of range: %v", quant.Indices)
		}
		if all[idx] != quant.Pairs[i] {
			t.Fatalf("index %d does not match returned pair", idx)
		}
	}
}

func TestSummarizeWithOptionsQuantizeWrongGranularity(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p1", "Phone", testReviews())
	if _, err := s.SummarizeWithOptions(item, Options{K: 2, Granularity: Sentences, QuantizeGrid: 0.05}); err == nil {
		t.Fatal("quantize on sentences accepted")
	}
}

func TestSummarizeWithOptionsRRTrials(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p1", "Phone", testReviews())
	single, err := s.SummarizeWithOptions(item, Options{K: 2, Granularity: Reviews, Method: MethodRR, RRTrials: 1})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := s.SummarizeWithOptions(item, Options{K: 2, Granularity: Reviews, Method: MethodRR, RRTrials: 8})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cost > single.Cost+1e-9 {
		t.Fatalf("best-of-8 cost %v worse than single %v", multi.Cost, single.Cost)
	}
}

func TestSummarizeWithOptionsErrors(t *testing.T) {
	s := testSummarizer(t)
	item := s.AnnotateItem("p1", "Phone", testReviews())
	if _, err := s.SummarizeWithOptions(item, Options{K: -1}); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := s.SummarizeWithOptions(item, Options{K: 1, Method: Method(77), QuantizeGrid: 0.05, Granularity: Pairs}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestNewSummaryRendersSelection checks the renderer, which walks the
// reviews to the selected units, against the flattened corpus: pairs,
// sentence texts and review IDs in selection order, for random
// unsorted selections of every size at every granularity, and for the
// representatives QuantizeGrid maps its selections back to.
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
	rng := rand.New(rand.NewSource(1))
	for _, g := range []Granularity{Pairs, Sentences, Reviews} {
		n := map[Granularity]int{Pairs: len(pairs), Sentences: len(texts), Reviews: len(item.Reviews)}[g]
		for trial := 0; trial < 20; trial++ {
			sel := rng.Perm(n)[:rng.Intn(n+1)]
			want := &Summary{Granularity: g, Method: MethodGreedy, Cost: 7, Indices: sel}
			for _, u := range sel {
				switch g {
				case Pairs:
					want.Pairs = append(want.Pairs, pairs[u])
				case Sentences:
					want.Sentences = append(want.Sentences, texts[u])
				case Reviews:
					want.ReviewIDs = append(want.ReviewIDs, item.Reviews[u].ID)
				}
			}
			if got := newSummary(item, g, MethodGreedy, 7, sel); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v trial %d: rendered %+v, want %+v", g, trial, got, want)
			}
		}
	}
	for _, grid := range []float64{0.05, 0.25, 1} {
		for k := 1; k <= 12; k++ {
			sum, err := s.SummarizeWithOptions(item, Options{K: k, Granularity: Pairs, Method: MethodGreedy, QuantizeGrid: grid})
			if err != nil {
				t.Fatal(err)
			}
			for i, idx := range sum.Indices {
				if sum.Pairs[i] != pairs[idx] {
					t.Fatalf("grid %v k %d: pair %d = %v, corpus pair %d = %v", grid, k, i, sum.Pairs[i], idx, pairs[idx])
				}
			}
		}
	}
}
