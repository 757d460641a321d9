package summarize

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"osars/internal/coverage"
	"osars/internal/model"
	"osars/internal/ontology"
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
