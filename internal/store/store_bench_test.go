package store

import (
	"fmt"
	"testing"

	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontoreg"
)

// benchCorpus returns the largest item of the small synthetic
// cell-phone corpus as raw reviews, mirroring the stateless service's
// per-request payload.
func benchCorpus(b *testing.B) []extract.RawReview {
	b.Helper()
	c := dataset.Generate(dataset.SmallCellPhoneConfig(7))
	best := 0
	for i := range c.Items {
		if len(c.Items[i].Reviews) > len(c.Items[best].Reviews) {
			best = i
		}
	}
	docs := c.Items[best].Reviews
	out := make([]extract.RawReview, len(docs))
	for i, d := range docs {
		out[i] = extract.RawReview{ID: d.ID, Text: d.Text, Rating: d.Rating}
	}
	return out
}

func benchStore(b *testing.B) *Store {
	b.Helper()
	s, err := New(testConfigBench())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func testConfigBench() Config {
	ont := dataset.CellPhoneOntology()
	return Config{Runtime: ontoreg.ConfigRuntime(
		model.Metric{Ont: ont, Epsilon: 0.5},
		extract.NewPipeline(extract.NewMatcher(ont), nil),
	)}
}

// BenchmarkSummarizeCold is the stateless baseline: every iteration
// annotates the full corpus from scratch and solves — exactly what
// POST /v1/summarize costs per request.
func BenchmarkSummarizeCold(b *testing.B) {
	reviews := benchCorpus(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := benchStore(b)
		if _, err := s.AppendReviews("p", "Phone", reviews); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Summary("p", 5, model.GranularitySentences, MethodGreedy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummaryWarm reads an unchanged item repeatedly: the
// generation-keyed cache answers without annotation or a coverage
// solve. The acceptance bar is ≥10× over BenchmarkSummarizeCold; in
// practice it is orders of magnitude.
func BenchmarkSummaryWarm(b *testing.B) {
	reviews := benchCorpus(b)
	s := benchStore(b)
	if _, err := s.AppendReviews("p", "Phone", reviews); err != nil {
		b.Fatal(err)
	}
	if _, _, err := s.Summary("p", 5, model.GranularitySentences, MethodGreedy); err != nil {
		b.Fatal(err) // prime the cache
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, cached, err := s.Summary("p", 5, model.GranularitySentences, MethodGreedy)
		if err != nil || !cached || len(sum.Sentences) != 5 {
			b.Fatalf("warm read: cached=%v err=%v", cached, err)
		}
	}
}

// BenchmarkAppendThenSummary is the incremental write path: one new
// review is annotated (not the whole corpus) and the summary re-solved
// at the new generation. Setup rebuilds the base corpus outside the
// timer each iteration so the measured op is exactly append(1)+solve.
func BenchmarkAppendThenSummary(b *testing.B) {
	reviews := benchCorpus(b)
	base, extra := reviews[:len(reviews)-1], reviews[len(reviews)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchStore(b)
		if _, err := s.AppendReviews("p", "Phone", base); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.Summary("p", 5, model.GranularitySentences, MethodGreedy); err != nil {
			b.Fatal(err)
		}
		extra.ID = fmt.Sprintf("extra-%d", i)
		b.StartTimer()
		if _, err := s.AppendReviews("p", "", []extract.RawReview{extra}); err != nil {
			b.Fatal(err)
		}
		sum, cached, err := s.Summary("p", 5, model.GranularitySentences, MethodGreedy)
		if err != nil || cached {
			b.Fatalf("append+read: cached=%v err=%v sum=%v", cached, err, sum)
		}
	}
}
