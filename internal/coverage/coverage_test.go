package coverage

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"osars/internal/model"
	"osars/internal/ontology"
)

// phoneOntology builds a small hierarchy:
//
//	phone ── screen ── resolution
//	   │  └─ battery
//	   └─ price
func phoneOntology(t testing.TB) (*ontology.Ontology, map[string]ontology.ConceptID) {
	t.Helper()
	var b ontology.Builder
	ids := map[string]ontology.ConceptID{}
	ids["phone"] = b.AddConcept("phone")
	ids["screen"] = b.Child(ids["phone"], "screen")
	ids["resolution"] = b.Child(ids["screen"], "resolution")
	ids["battery"] = b.Child(ids["phone"], "battery")
	ids["price"] = b.Child(ids["phone"], "price")
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return o, ids
}

func TestBuildPairsEdges(t *testing.T) {
	o, ids := phoneOntology(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	P := []model.Pair{
		{Concept: ids["screen"], Sentiment: 0.8},     // 0
		{Concept: ids["resolution"], Sentiment: 0.6}, // 1: covered by 0 at dist 1
		{Concept: ids["resolution"], Sentiment: -.9}, // 2: NOT covered by 0 (sentiment)
		{Concept: ids["battery"], Sentiment: 0.7},    // 3: sibling of screen
	}
	g := BuildPairs(m, P)
	if g.NumCandidates != 4 || len(g.Pairs) != 4 {
		t.Fatalf("graph size wrong: %v", g)
	}
	type key struct{ u, w int }
	got := map[key]int{}
	for u := 0; u < g.NumCandidates; u++ {
		g.Covered(u, func(w, dist int) bool {
			got[key{u, w}] = dist
			return true
		})
	}
	want := map[key]int{
		{0, 0}: 0, {0, 1}: 1, // screen covers itself and resolution(0.6)
		{1, 1}: 0,
		{2, 2}: 0,
		{3, 3}: 0,
	}
	if len(got) != len(want) {
		t.Fatalf("edges = %v, want %v", got, want)
	}
	for k, d := range want {
		if got[k] != d {
			t.Errorf("edge %v dist = %d, want %d", k, got[k], d)
		}
	}
	// Root distances are concept depths.
	wantRoot := []int32{1, 2, 2, 1}
	for w, d := range wantRoot {
		if g.RootDist[w] != d {
			t.Errorf("RootDist[%d] = %d, want %d", w, g.RootDist[w], d)
		}
	}
}

func TestRootConceptPairCoversEverything(t *testing.T) {
	o, ids := phoneOntology(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	P := []model.Pair{
		{Concept: ids["phone"], Sentiment: -1},      // root concept, extreme sentiment
		{Concept: ids["resolution"], Sentiment: +1}, // far sentiment: still covered by root pair
		{Concept: ids["battery"], Sentiment: 0},
	}
	g := BuildPairs(m, P)
	covered := map[int]int{}
	g.Covered(0, func(w, dist int) bool { covered[w] = dist; return true })
	if covered[1] != 2 || covered[2] != 1 || covered[0] != 0 {
		t.Fatalf("root-concept pair coverage = %v, want {0:0 1:2 2:1}", covered)
	}
}

func TestCostOfMatchesMetricCost(t *testing.T) {
	o, ids := phoneOntology(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	P := []model.Pair{
		{Concept: ids["screen"], Sentiment: 0.8},
		{Concept: ids["resolution"], Sentiment: 0.6},
		{Concept: ids["resolution"], Sentiment: -0.9},
		{Concept: ids["battery"], Sentiment: 0.7},
		{Concept: ids["price"], Sentiment: -0.2},
	}
	g := BuildPairs(m, P)
	for _, sel := range [][]int{{}, {0}, {0, 3}, {1, 2, 4}, {0, 1, 2, 3, 4}} {
		F := make([]model.Pair, len(sel))
		for i, u := range sel {
			F[i] = P[u]
		}
		if got, want := g.CostOf(sel), m.Cost(F, P); got != want {
			t.Errorf("CostOf(%v) = %v, metric cost %v", sel, got, want)
		}
	}
	if got, want := g.EmptyCost(), m.Cost(nil, P); got != want {
		t.Errorf("EmptyCost = %v, want %v", got, want)
	}
}

func TestBuildGroupsMinDistance(t *testing.T) {
	o, ids := phoneOntology(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	// One sentence with both a screen and a resolution pair: its edge
	// to the resolution pair must take the min distance (0, from the
	// resolution pair itself) not 1 (from the screen pair).
	groups := [][]model.Pair{
		{{Concept: ids["screen"], Sentiment: 0.8}, {Concept: ids["resolution"], Sentiment: 0.6}},
		{{Concept: ids["battery"], Sentiment: -0.5}},
	}
	var P []model.Pair
	for _, g := range groups {
		P = append(P, g...)
	}
	g := BuildGroups(m, groups, P)
	if g.NumCandidates != 2 {
		t.Fatalf("NumCandidates = %d, want 2", g.NumCandidates)
	}
	dist := map[int]int{}
	g.Covered(0, func(w, d int) bool { dist[w] = d; return true })
	if dist[0] != 0 || dist[1] != 0 {
		t.Fatalf("group 0 coverage = %v, want both at 0", dist)
	}
	// Selecting group 0 leaves only the battery pair to the root.
	if got := g.CostOf([]int{0}); got != 1 {
		t.Fatalf("CostOf([0]) = %v, want 1", got)
	}
}

func TestSentenceAndReviewGroups(t *testing.T) {
	o, ids := phoneOntology(t)
	item := &model.Item{
		Reviews: []model.Review{
			{Sentences: []model.Sentence{
				{Pairs: []model.Pair{{Concept: ids["screen"], Sentiment: 0.5}}},
				{Pairs: []model.Pair{{Concept: ids["battery"], Sentiment: -0.5}, {Concept: ids["price"], Sentiment: 0}}},
			}},
			{Sentences: []model.Sentence{
				{Pairs: nil}, // pairless sentence still a candidate
			}},
		},
	}
	sg, sp := SentenceGroups(item)
	if len(sg) != 3 || len(sp) != 3 {
		t.Fatalf("SentenceGroups = %d groups, %d pairs; want 3, 3", len(sg), len(sp))
	}
	rg, rp := ReviewGroups(item)
	if len(rg) != 2 || len(rp) != 3 {
		t.Fatalf("ReviewGroups = %d groups, %d pairs; want 2, 3", len(rg), len(rp))
	}
	m := model.Metric{Ont: o, Epsilon: 0.5}
	for _, gran := range []model.Granularity{model.GranularityPairs, model.GranularitySentences, model.GranularityReviews} {
		g := Build(m, item, gran)
		if g == nil || len(g.Pairs) != 3 {
			t.Fatalf("Build(%v) pairs = %d, want 3", gran, len(g.Pairs))
		}
	}
}

// TestCoverersIsTransposeOfCovered checks that every backward row
// lists its coverers in ascending candidate order and that the backward
// rows hold every forward edge exactly once, at the same distance, for
// Build and index-frozen graphs at every granularity.
func TestCoverersIsTransposeOfCovered(t *testing.T) {
	o, _ := phoneOntology(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	item := randomItem(rand.New(rand.NewSource(1)), o, 30)
	for _, gran := range allGranularities {
		idx := NewIndex(m, gran)
		idx.Merge(item.Reviews[:10])
		idx.Merge(item.Reviews[10:])
		for _, tc := range []struct {
			name string
			g    *Graph
		}{{"build", Build(m, item, gran)}, {"frozen", idx.Freeze()}} {
			label := tc.name + "/" + gran.String()
			g := tc.g
			type key struct{ u, w int }
			fwd := map[key]int{}
			for u := 0; u < g.NumCandidates; u++ {
				g.Covered(u, func(w, d int) bool { fwd[key{u, w}] = d; return true })
			}
			bwd := 0
			for w := range g.Pairs {
				prev := -1
				g.Coverers(w, func(u, d int) bool {
					if u <= prev {
						t.Fatalf("%s: coverers of pair %d not ascending: %d after %d", label, w, u, prev)
					}
					prev = u
					if fd, ok := fwd[key{u, w}]; !ok || fd != d {
						t.Fatalf("%s: backward edge (%d, %d) at %d has no forward edge at that distance", label, u, w, d)
					}
					bwd++
					return true
				})
			}
			if len(fwd) != bwd || len(fwd) != g.NumEdges() {
				t.Fatalf("%s: edge counts differ: fwd %d bwd %d NumEdges %d", label, len(fwd), bwd, g.NumEdges())
			}
		}
	}
}

// randomPairsInstance builds a random DAG and pair multiset for
// property tests.
func randomPairsInstance(rng *rand.Rand) (model.Metric, []model.Pair) {
	var b ontology.Builder
	n := 2 + rng.Intn(25)
	ids := make([]ontology.ConceptID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddConcept("c" + string(rune('a'+i%26)) + string(rune('a'+i/26)))
		if i > 0 {
			b.AddEdge(ids[rng.Intn(i)], ids[i])
			if i >= 2 && rng.Intn(4) == 0 {
				b.AddEdge(ids[rng.Intn(i)], ids[i])
			}
		}
	}
	o, err := b.Build()
	if err != nil {
		panic(err)
	}
	P := make([]model.Pair, 1+rng.Intn(40))
	for i := range P {
		P[i] = model.Pair{Concept: ids[rng.Intn(n)], Sentiment: math.Round(rng.Float64()*20-10) / 10}
	}
	return model.Metric{Ont: o, Epsilon: 0.5}, P
}

// Property: the bucket+walk builder produces exactly the same edge set
// (with the same minimum weights) as the naive all-pairs builder.
func TestQuickBuildMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, P := randomPairsInstance(rng)
		fast := BuildPairs(m, P)
		naive := BuildPairsNaive(m, P)
		if fast.NumEdges() != naive.NumEdges() {
			t.Logf("edge count %d vs %d", fast.NumEdges(), naive.NumEdges())
			return false
		}
		type key struct{ u, w int }
		collect := func(g *Graph) map[key]int {
			out := map[key]int{}
			for u := 0; u < g.NumCandidates; u++ {
				g.Covered(u, func(w, d int) bool { out[key{u, w}] = d; return true })
			}
			return out
		}
		a, b := collect(fast), collect(naive)
		for k, d := range a {
			if b[k] != d {
				t.Logf("edge %v: fast %d naive %d", k, d, b[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: CostOf on random selections agrees with the reference
// Metric.Cost.
func TestQuickCostOfMatchesMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, P := randomPairsInstance(rng)
		g := BuildPairs(m, P)
		for trial := 0; trial < 5; trial++ {
			var sel []int
			var F []model.Pair
			for u := range P {
				if rng.Intn(3) == 0 {
					sel = append(sel, u)
					F = append(F, P[u])
				}
			}
			if g.CostOf(sel) != m.Cost(F, P) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: group cost via graph equals the reference GroupCost.
func TestQuickGroupCostMatchesMetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, P := randomPairsInstance(rng)
		// Partition P into random contiguous groups.
		var groups [][]model.Pair
		for i := 0; i < len(P); {
			j := i + 1 + rng.Intn(3)
			if j > len(P) {
				j = len(P)
			}
			groups = append(groups, P[i:j])
			i = j
		}
		g := BuildGroups(m, groups, P)
		for trial := 0; trial < 5; trial++ {
			var sel []int
			var chosen [][]model.Pair
			for u := range groups {
				if rng.Intn(3) == 0 {
					sel = append(sel, u)
					chosen = append(chosen, groups[u])
				}
			}
			if g.CostOf(sel) != m.GroupCost(chosen, P) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// requireDistinctTargets checks a graph's targets against the multiset
// P they were built from: pairwise distinct, in order of first
// occurrence in P, weights summing to |P|, and each target repeated
// Weight times gives back P.
func requireDistinctTargets(g *Graph, P []model.Pair) error {
	for i := range g.Pairs {
		for j := i + 1; j < len(g.Pairs); j++ {
			if g.Pairs[i] == g.Pairs[j] {
				return fmt.Errorf("targets %d and %d are both %v", i, j, g.Pairs[i])
			}
		}
	}
	last := -1
	for w, p := range g.Pairs {
		first := 0
		for first < len(P) && P[first] != p {
			first++
		}
		if first <= last {
			return fmt.Errorf("target %d first occurs at %d, before target %d's first occurrence %d", w, first, w-1, last)
		}
		last = first
	}
	var expanded []model.Pair
	for w, p := range g.Pairs {
		for i := int32(0); i < g.Weight[w]; i++ {
			expanded = append(expanded, p)
		}
	}
	if len(expanded) != len(P) {
		return fmt.Errorf("weights sum to %d, want |P| = %d", len(expanded), len(P))
	}
	sorted := append([]model.Pair(nil), P...)
	for _, s := range [][]model.Pair{expanded, sorted} {
		sort.Slice(s, func(i, j int) bool {
			if s[i].Concept != s[j].Concept {
				return s[i].Concept < s[j].Concept
			}
			return s[i].Sentiment < s[j].Sentiment
		})
	}
	for i := range sorted {
		if expanded[i] != sorted[i] {
			return fmt.Errorf("targets expanded by weight differ from P at sorted position %d: %v vs %v", i, expanded[i], sorted[i])
		}
	}
	return nil
}

// Property: every plain builder's targets are P's distinct pairs in
// first-occurrence order, weighted by their multiplicity in P.
func TestQuickBuildTargetsDistinctWeighted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, P := randomPairsInstance(rng)
		// Repeat some pairs so most instances have duplicates.
		for i := rng.Intn(len(P) + 1); i > 0; i-- {
			P = append(P, P[rng.Intn(len(P))])
		}
		rng.Shuffle(len(P), func(i, j int) { P[i], P[j] = P[j], P[i] })
		var groups [][]model.Pair
		for i := 0; i < len(P); {
			j := min(i+1+rng.Intn(3), len(P))
			groups = append(groups, P[i:j])
			i = j
		}
		for name, g := range map[string]*Graph{
			"BuildPairs":        BuildPairs(m, P),
			"BuildGroups":       BuildGroups(m, groups, P),
			"BuildPairsWalker":  BuildPairsWalker(m, P),
			"BuildGroupsWalker": BuildGroupsWalker(m, groups, P),
			"BuildPairsNaive":   BuildPairsNaive(m, P),
		} {
			if err := requireDistinctTargets(g, P); err != nil {
				t.Logf("seed %d, %s: %v", seed, name, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
