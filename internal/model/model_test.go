package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"osars/internal/ontology"
)

// chain builds root -> mid -> leaf plus a sibling of mid.
func chain(t *testing.T) (*ontology.Ontology, map[string]ontology.ConceptID) {
	t.Helper()
	var b ontology.Builder
	ids := map[string]ontology.ConceptID{}
	ids["root"] = b.AddConcept("root")
	ids["mid"] = b.Child(ids["root"], "mid")
	ids["leaf"] = b.Child(ids["mid"], "leaf")
	ids["sib"] = b.Child(ids["root"], "sib")
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return o, ids
}

func TestPairDistanceDefinition1(t *testing.T) {
	o, ids := chain(t)
	m := Metric{Ont: o, Epsilon: 0.5}
	root, mid, leaf, sib := ids["root"], ids["mid"], ids["leaf"], ids["sib"]
	cases := []struct {
		name   string
		p1, p2 Pair
		want   int
	}{
		{"root covers anything regardless of sentiment",
			Pair{root, -1}, Pair{leaf, +1}, 2},
		{"root covers itself at 0",
			Pair{root, 0}, Pair{root, 0.9}, 0},
		{"ancestor within epsilon",
			Pair{mid, 0.3}, Pair{leaf, 0.6}, 1},
		{"same concept within epsilon",
			Pair{leaf, 0.1}, Pair{leaf, 0.4}, 0},
		{"ancestor outside epsilon",
			Pair{mid, 0.0}, Pair{leaf, 0.6}, Infinite},
		{"epsilon boundary is inclusive",
			Pair{mid, 0.0}, Pair{leaf, 0.5}, 1},
		{"descendant cannot cover ancestor",
			Pair{leaf, 0.0}, Pair{mid, 0.0}, Infinite},
		{"sibling cannot cover",
			Pair{sib, 0.0}, Pair{leaf, 0.0}, Infinite},
	}
	for _, c := range cases {
		if got := m.PairDistance(c.p1, c.p2); got != c.want {
			t.Errorf("%s: d(%v,%v) = %d, want %d", c.name, c.p1, c.p2, got, c.want)
		}
		if gotCov, wantCov := m.Covers(c.p1, c.p2), c.want < Infinite; gotCov != wantCov {
			t.Errorf("%s: Covers = %v, want %v", c.name, gotCov, wantCov)
		}
	}
}

func TestDistanceToPairUsesRootFallback(t *testing.T) {
	o, ids := chain(t)
	m := Metric{Ont: o, Epsilon: 0.5}
	p := Pair{ids["leaf"], 0.9}
	// Summary that cannot cover p: distance must fall back to the
	// root's distance, i.e. the depth of leaf = 2.
	if got := m.DistanceToPair([]Pair{{ids["sib"], 0.9}}, p); got != 2 {
		t.Fatalf("DistanceToPair = %d, want root fallback 2", got)
	}
	// Empty summary: also depth.
	if got := m.DistanceToPair(nil, p); got != 2 {
		t.Fatalf("DistanceToPair(nil) = %d, want 2", got)
	}
	// A covering pair beats the root.
	if got := m.DistanceToPair([]Pair{{ids["mid"], 0.8}}, p); got != 1 {
		t.Fatalf("DistanceToPair = %d, want 1", got)
	}
}

func TestCostDefinition2(t *testing.T) {
	o, ids := chain(t)
	m := Metric{Ont: o, Epsilon: 0.5}
	P := []Pair{
		{ids["leaf"], 0.9}, // covered by (mid,0.8) at 1
		{ids["mid"], 0.7},  // covered by (mid,0.8) at 0
		{ids["sib"], -0.9}, // only root covers: depth 1
	}
	F := []Pair{{ids["mid"], 0.8}}
	if got := m.Cost(F, P); got != 2 {
		t.Fatalf("Cost = %v, want 2", got)
	}
	// Empty summary cost = sum of depths = 2 + 1 + 1.
	if got := m.Cost(nil, P); got != 4 {
		t.Fatalf("Cost(nil) = %v, want 4", got)
	}
}

func TestGroupCost(t *testing.T) {
	o, ids := chain(t)
	m := Metric{Ont: o, Epsilon: 0.5}
	P := []Pair{{ids["leaf"], 0.9}, {ids["sib"], -0.9}}
	// One group (a sentence) holding both a mid and a sib pair covers
	// both: leaf at 1 via mid, sib at 0.
	g := [][]Pair{{{ids["mid"], 0.8}, {ids["sib"], -0.8}}}
	if got := m.GroupCost(g, P); got != 1 {
		t.Fatalf("GroupCost = %v, want 1", got)
	}
	if got := m.GroupCost(nil, P); got != 3 {
		t.Fatalf("GroupCost(nil) = %v, want 3 (depths)", got)
	}
}

func TestGroupDistanceToPair(t *testing.T) {
	o, ids := chain(t)
	m := Metric{Ont: o, Epsilon: 0.5}
	p := Pair{ids["leaf"], 0.9}
	group := []Pair{{ids["sib"], 0.9}, {ids["mid"], 0.8}}
	if got := m.GroupDistanceToPair(group, p); got != 1 {
		t.Fatalf("GroupDistanceToPair = %d, want 1", got)
	}
	if got := m.GroupDistanceToPair([]Pair{{ids["sib"], 0.9}}, p); got != Infinite {
		t.Fatalf("GroupDistanceToPair = %d, want Infinite", got)
	}
}

func TestReviewAndItemPairs(t *testing.T) {
	r := Review{
		ID: "r1",
		Sentences: []Sentence{
			{Text: "a", Pairs: []Pair{{1, 0.5}, {2, -0.5}}},
			{Text: "b", Pairs: []Pair{{3, 0.0}}},
			{Text: "c"}, // no pairs
		},
	}
	if got := r.Pairs(); len(got) != 3 {
		t.Fatalf("Review.Pairs len = %d, want 3", len(got))
	}
	it := Item{Reviews: []Review{r, {Sentences: []Sentence{{Pairs: []Pair{{4, 1}}}}}}}
	if got := it.Pairs(); len(got) != 4 {
		t.Fatalf("Item.Pairs len = %d, want 4", len(got))
	}
	if got := it.NumSentences(); got != 4 {
		t.Fatalf("NumSentences = %d, want 4", got)
	}
	if got := it.NumPairs(); got != 4 {
		t.Fatalf("NumPairs = %d, want 4", got)
	}
}

func TestGranularityString(t *testing.T) {
	if GranularityPairs.String() != "pairs" ||
		GranularitySentences.String() != "sentences" ||
		GranularityReviews.String() != "reviews" {
		t.Fatal("Granularity strings wrong")
	}
	if Granularity(99).String() == "" {
		t.Fatal("unknown granularity should still stringify")
	}
}

// randomInstance builds a random DAG ontology and pair multiset.
func randomInstance(rng *rand.Rand) (Metric, []Pair) {
	var b ontology.Builder
	n := 2 + rng.Intn(20)
	ids := make([]ontology.ConceptID, n)
	ids[0] = b.AddConcept("c0")
	for i := 1; i < n; i++ {
		ids[i] = b.AddConcept("c" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		b.AddEdge(ids[rng.Intn(i)], ids[i])
		if rng.Intn(3) == 0 && i >= 2 {
			b.AddEdge(ids[rng.Intn(i)], ids[i])
		}
	}
	o, err := b.Build()
	if err != nil {
		panic(err)
	}
	P := make([]Pair, 1+rng.Intn(30))
	for i := range P {
		P[i] = Pair{ids[rng.Intn(n)], math.Round(rng.Float64()*20-10) / 10}
	}
	return Metric{Ont: o, Epsilon: 0.5}, P
}

// Property: cost is monotone non-increasing as the summary grows
// (adding a pair can only reduce each min term).
func TestQuickCostMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, P := randomInstance(rng)
		var F []Pair
		prev := m.Cost(F, P)
		for i := 0; i < 5 && i < len(P); i++ {
			F = append(F, P[rng.Intn(len(P))])
			cur := m.Cost(F, P)
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the coverage-gain function g(F) = C(∅,P) - C(F,P) is
// submodular: the marginal gain of adding pair x to F is at least its
// marginal gain when added to a superset F ∪ {y}. This is the property
// Wolsey's greedy bound (Theorem 4) relies on.
func TestQuickSubmodularity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, P := randomInstance(rng)
		if len(P) < 3 {
			return true
		}
		for trial := 0; trial < 10; trial++ {
			F := []Pair{P[rng.Intn(len(P))]}
			x := P[rng.Intn(len(P))]
			y := P[rng.Intn(len(P))]
			gainSmall := m.Cost(F, P) - m.Cost(append(append([]Pair{}, F...), x), P)
			Fy := append(append([]Pair{}, F...), y)
			gainBig := m.Cost(Fy, P) - m.Cost(append(append([]Pair{}, Fy...), x), P)
			if gainSmall < gainBig-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every distance returned by DistanceToPair is at most the
// root fallback (the pair's depth) and non-negative.
func TestQuickDistanceBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, P := randomInstance(rng)
		F := P[:len(P)/2]
		for _, p := range P {
			d := m.DistanceToPair(F, p)
			if d < 0 || d > m.Ont.Depth(p.Concept) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
