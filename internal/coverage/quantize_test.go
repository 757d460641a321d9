package coverage

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"osars/internal/model"
	"osars/internal/ontology"
)

// BuildPairsQuantized is a lossy variant of BuildPairs for the k-Pairs
// problem, kept as test-only ablation code (ablation 8): sentiments
// are snapped to a grid (e.g. 0.05) and identical (concept, quantized
// sentiment) pairs are merged into one weighted pair, which also
// merges their candidates. Costs change only by the quantization
// error (zero when sentiments already live on the grid, as the graded
// opinion-lexicon estimates do).
//
// rep[w] is the index in the original multiset of the first pair the
// unique pair w stands for, so a selection over the quantized graph
// translates back to original pairs.
func BuildPairsQuantized(m model.Metric, pairs []model.Pair, grid float64) (g *Graph, rep []int) {
	if grid <= 0 {
		grid = 0.05
	}
	type key struct {
		c ontology.ConceptID
		q int64
	}
	index := make(map[key]int, len(pairs))
	var unique []model.Pair
	var weight []int32
	for i, p := range pairs {
		q := int64(math.Round(p.Sentiment / grid))
		k := key{p.Concept, q}
		if at, ok := index[k]; ok {
			weight[at]++
			continue
		}
		index[k] = len(unique)
		// The representative keeps the first occurrence's exact
		// sentiment (not q·grid), so pairs that were already identical
		// merge without perturbing any Definition-1 ε comparison.
		unique = append(unique, p)
		weight = append(weight, 1)
		rep = append(rep, i)
	}
	groups := make([][]model.Pair, len(unique))
	for i := range unique {
		groups[i] = unique[i : i+1]
	}
	return buildClosure(m, groups, unique, weight), rep
}

func TestBuildPairsQuantizedShrinksDuplicates(t *testing.T) {
	o, ids := phoneOntology(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	P := []model.Pair{
		{Concept: ids["screen"], Sentiment: 0.5},
		{Concept: ids["screen"], Sentiment: 0.5},
		{Concept: ids["screen"], Sentiment: 0.5},
		{Concept: ids["battery"], Sentiment: -0.5},
	}
	g, rep := BuildPairsQuantized(m, P, 0.05)
	if len(g.Pairs) != 2 || g.NumCandidates != 2 {
		t.Fatalf("quantized graph has %d pairs, want 2", len(g.Pairs))
	}
	if g.Weight[0] != 3 || g.Weight[1] != 1 {
		t.Fatalf("weights = %v, want [3 1]", g.Weight)
	}
	if rep[0] != 0 || rep[1] != 3 {
		t.Fatalf("rep = %v, want [0 3]", rep)
	}
	// Costs must equal the multiset graph's.
	full := BuildPairs(m, P)
	if g.EmptyCost() != full.EmptyCost() {
		t.Fatalf("empty cost %v != %v", g.EmptyCost(), full.EmptyCost())
	}
	// Selecting the screen pair (unique idx 0 / multiset idx 0).
	if got, want := g.CostOf([]int{0}), full.CostOf([]int{0}); got != want {
		t.Fatalf("CostOf = %v, want %v", got, want)
	}
}

func TestBuildPairsQuantizedSnapsToGrid(t *testing.T) {
	o, ids := phoneOntology(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	P := []model.Pair{
		{Concept: ids["screen"], Sentiment: 0.4999},
		{Concept: ids["screen"], Sentiment: 0.5001},
	}
	g, _ := BuildPairsQuantized(m, P, 0.05)
	if len(g.Pairs) != 1 || g.Weight[0] != 2 {
		t.Fatalf("near-identical sentiments not merged: %d pairs, weights %v", len(g.Pairs), g.Weight)
	}
	// The representative keeps the first occurrence's exact sentiment.
	if math.Abs(g.Pairs[0].Sentiment-0.4999) > 1e-12 {
		t.Fatalf("representative sentiment = %v, want 0.4999", g.Pairs[0].Sentiment)
	}
}

func TestBuildPairsQuantizedDefaultGrid(t *testing.T) {
	o, ids := phoneOntology(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	P := []model.Pair{{Concept: ids["screen"], Sentiment: 0.5}}
	g, rep := BuildPairsQuantized(m, P, 0)
	if len(g.Pairs) != 1 || len(rep) != 1 {
		t.Fatal("default grid failed")
	}
}

// Property: for on-grid sentiments, every selection's cost on the
// quantized graph equals the corresponding multiset-graph cost.
func TestQuickQuantizedCostsMatchMultiset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, P := randomPairsInstance(rng) // sentiments already on the 0.1 grid
		full := BuildPairs(m, P)
		q, rep := BuildPairsQuantized(m, P, 0.1)
		if q.EmptyCost() != full.EmptyCost() {
			return false
		}
		for trial := 0; trial < 5; trial++ {
			var qsel, fsel []int
			for u := range q.Pairs {
				if rng.Intn(3) == 0 {
					qsel = append(qsel, u)
					fsel = append(fsel, rep[u])
				}
			}
			if q.CostOf(qsel) != full.CostOf(fsel) {
				t.Logf("seed %d: quantized %v vs full %v", seed, q.CostOf(qsel), full.CostOf(fsel))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
