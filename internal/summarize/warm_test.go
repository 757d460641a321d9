package summarize

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"osars/internal/coverage"
	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontology"
	"osars/internal/sentiment"
)

// requireSameResult asserts two greedy results are identical in
// selection order and cost.
func requireSameResult(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Selected, want.Selected) {
		t.Fatalf("%s: Selected = %v, want %v", label, got.Selected, want.Selected)
	}
	if got.Cost != want.Cost {
		t.Fatalf("%s: Cost = %v, want %v", label, got.Cost, want.Cost)
	}
}

// TestGreedyWarmMatchesColdOnBatchGraphs checks the identity guarantee
// on graphs WITHOUT maintained gains (InitGains == nil): GreedyWarm
// scans for its initial keys and selects exactly as the
// rebuild-everything reference does.
func TestGreedyWarmMatchesColdOnBatchGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		g := randomGraph(rng, 10, 20)
		if trial%2 == 1 {
			g = randomGroupGraph(rng)
		}
		for _, k := range []int{0, 1, 2, g.NumCandidates / 2, g.NumCandidates} {
			if k > g.NumCandidates {
				continue
			}
			cold := GreedyRebuild(g, k)
			warmRes, _ := GreedyWarm(g, k, nil)
			requireSameResult(t, warmRes, cold, fmt.Sprintf("trial%d/k=%d", trial, k))
			// Seeding with the reference result must not change the
			// answer either, and must report a hit (same graph, same
			// keys).
			seeded, hit := GreedyWarm(g, k, cold)
			requireSameResult(t, seeded, cold, fmt.Sprintf("trial%d/k=%d/seeded", trial, k))
			if !hit {
				t.Fatalf("trial%d/k=%d: replaying the cold selection on the same graph was not a warm hit", trial, k)
			}
		}
	}
}

// warmTestItem builds a random annotated item over a small DAG.
func warmTestItem(rng *rand.Rand, o *ontology.Ontology, reviews int) *model.Item {
	item := &model.Item{ID: "w", Name: "w"}
	for ri := 0; ri < reviews; ri++ {
		r := model.Review{ID: fmt.Sprintf("r%d", ri)}
		for si := 0; si < 1+rng.Intn(3); si++ {
			s := model.Sentence{Text: fmt.Sprintf("s%d/%d", ri, si)}
			for pi := 0; pi < rng.Intn(4); pi++ {
				s.Pairs = append(s.Pairs, model.Pair{
					Concept:   ontology.ConceptID(rng.Intn(o.Len())),
					Sentiment: float64(rng.Intn(21)-10) / 10,
				})
			}
			r.Sentences = append(r.Sentences, s)
		}
		item.Reviews = append(item.Reviews, r)
	}
	return item
}

// TestGreedyWarmMatchesColdOnIndexGraphs is the incremental guarantee:
// over an appending corpus, warm-start greedy on the index-frozen
// graph (maintained InitGains, previous selection as seed) returns a
// result identical to GreedyRebuild on a from-scratch build — at every
// append step and every granularity.
func TestGreedyWarmMatchesColdOnIndexGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var b ontology.Builder
	root := b.AddConcept("root")
	ids := []ontology.ConceptID{root}
	for i := 0; i < 12; i++ {
		ids = append(ids, b.Child(ids[rng.Intn(len(ids))], fmt.Sprintf("c%d", i)))
	}
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := model.Metric{Ont: o, Epsilon: 0.3}

	for trial := 0; trial < 8; trial++ {
		item := warmTestItem(rng, o, 10)
		for _, gran := range []model.Granularity{
			model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
		} {
			idx := coverage.NewIndex(m, gran)
			var prev *Result
			for n := 1; n <= len(item.Reviews); n++ {
				idx.Merge(item.Reviews[n-1 : n])
				g := idx.Freeze()
				coldG := coverage.Build(m, &model.Item{ID: item.ID, Reviews: item.Reviews[:n]}, gran)
				k := 3
				if k > g.NumCandidates {
					k = g.NumCandidates
				}
				cold := GreedyRebuild(coldG, k)
				warmRes, _ := GreedyWarm(g, k, prev)
				requireSameResult(t, warmRes, cold,
					fmt.Sprintf("trial%d/%v/n=%d/k=%d", trial, gran, n, k))
				prev = warmRes
			}
		}
	}
}

// TestGreedyWarmHitSemantics pins the warm flag: a hit requires a
// previous result covering at least k steps that replays exactly.
func TestGreedyWarmHitSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomGroupGraph(rng)
	k := 3
	if k > g.NumCandidates {
		k = g.NumCandidates
	}
	cold := Greedy(g, k)

	if _, hit := GreedyWarm(g, k, nil); hit {
		t.Fatal("nil prev reported a warm hit")
	}
	if k > 1 {
		short := &Result{Selected: cold.Selected[:k-1]}
		if _, hit := GreedyWarm(g, k, short); hit {
			t.Fatal("a prev shorter than k reported a warm hit")
		}
		wrong := &Result{Selected: append([]int(nil), cold.Selected...)}
		wrong.Selected[0], wrong.Selected[k-1] = wrong.Selected[k-1], wrong.Selected[0]
		res, hit := GreedyWarm(g, k, wrong)
		if hit {
			t.Fatal("a diverging prev reported a warm hit")
		}
		requireSameResult(t, res, cold, "diverging prev")
	}
	if _, hit := GreedyWarm(g, k, cold); !hit {
		t.Fatal("replaying the exact previous selection was not a hit")
	}
}

// TestGreedyWarmMatchesRebuildOnIndexedDoctorItem runs the incremental
// guarantee at the scale of a followed item, where the lazy greedy
// refreshes hundreds of candidates per solve: a 1,020-review doctor
// item merges into an index in 100-review chunks and then one review
// at a time. After every merge, at every granularity and k ∈ {1, 5,
// 20}, warm-start greedy on the frozen graph, seeded with its previous
// result, must equal GreedyRebuild on a from-scratch build. A 43-review
// item then runs k = NumCandidates, where the heap runs dry and the
// zero-gain candidates fill in by smallest index.
func TestGreedyWarmMatchesRebuildOnIndexedDoctorItem(t *testing.T) {
	ont := dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1})
	metric := model.Metric{Ont: ont, Epsilon: 0.5}
	pipe := extract.NewPipeline(extract.NewMatcher(ont), sentiment.Lexicon{})
	doctorItem := func(n int) *model.Item {
		cfg := dataset.DoctorConfig(1)
		cfg.NumItems, cfg.TotalReviews, cfg.MinReviews, cfg.MaxReviews = 1, n, n, n
		raw := dataset.GenerateWithOntology(cfg, ont).Items[0]
		raws := make([]extract.RawReview, len(raw.Reviews))
		for i, r := range raw.Reviews {
			raws[i] = extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating}
		}
		return pipe.AnnotateItem(raw.ID, raw.Name, raws)
	}
	grans := []model.Granularity{
		model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
	}

	item := doctorItem(1020)
	var cuts []int
	for n := 100; n <= 1000; n += 100 {
		cuts = append(cuts, n)
	}
	for n := 1001; n <= len(item.Reviews); n++ {
		cuts = append(cuts, n)
	}
	for _, gran := range grans {
		idx := coverage.NewIndex(metric, gran)
		prev := map[int]*Result{}
		merged := 0
		for _, n := range cuts {
			idx.Merge(item.Reviews[merged:n])
			merged = n
			g := idx.Freeze()
			coldG := coverage.Build(metric, &model.Item{ID: item.ID, Reviews: item.Reviews[:n]}, gran)
			for _, k := range []int{1, 5, 20} {
				warmRes, _ := GreedyWarm(g, k, prev[k])
				requireSameResult(t, warmRes, GreedyRebuild(coldG, k),
					fmt.Sprintf("%v/n=%d/k=%d", gran, n, k))
				prev[k] = warmRes
			}
		}
	}

	small := doctorItem(43)
	for _, gran := range grans {
		idx := coverage.NewIndex(metric, gran)
		idx.Merge(small.Reviews)
		g := idx.Freeze()
		k := g.NumCandidates
		warmRes, _ := GreedyWarm(g, k, nil)
		requireSameResult(t, warmRes, GreedyRebuild(coverage.Build(metric, small, gran), k),
			fmt.Sprintf("43 reviews/%v/k=%d", gran, k))
	}
}
