package summarize

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"osars/internal/coverage"
	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontology"
	"osars/internal/sentiment"
)

// randomGraph builds a random pairs-granularity coverage instance.
func randomGraph(rng *rand.Rand, maxConcepts, maxPairs int) *coverage.Graph {
	return coverage.BuildPairs(randomPairs(rng, maxConcepts, maxPairs))
}

// randomPairs draws a random DAG and pair multiset P, the instance
// randomGraph builds. The graph's Pairs are P's distinct pairs, so
// helpers that need P itself take it from here.
func randomPairs(rng *rand.Rand, maxConcepts, maxPairs int) (model.Metric, []model.Pair) {
	var b ontology.Builder
	n := 2 + rng.Intn(maxConcepts-1)
	ids := make([]ontology.ConceptID, n)
	for i := 0; i < n; i++ {
		ids[i] = b.AddConcept("c" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)))
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
	P := make([]model.Pair, 1+rng.Intn(maxPairs))
	for i := range P {
		P[i] = model.Pair{Concept: ids[rng.Intn(n)], Sentiment: math.Round(rng.Float64()*20-10) / 10}
	}
	return model.Metric{Ont: o, Epsilon: 0.5}, P
}

// randomGroupGraph builds a random sentences-style instance.
func randomGroupGraph(rng *rand.Rand) *coverage.Graph {
	m, P := randomPairs(rng, 12, 24)
	var groups [][]model.Pair
	for i := 0; i < len(P); {
		j := i + 1 + rng.Intn(3)
		if j > len(P) {
			j = len(P)
		}
		groups = append(groups, P[i:j])
		i = j
	}
	return coverage.BuildGroups(m, groups, P)
}

func TestGreedyPicksHighestGainFirst(t *testing.T) {
	// root -> a -> b; pairs: (a,.5) covers (b,.6) and itself; picking
	// (a,.5) first saves 1 (b) + 1 (a itself) = 2 vs (b,.6)'s 1.
	var bld ontology.Builder
	root := bld.AddConcept("root")
	a := bld.Child(root, "a")
	bc := bld.Child(a, "b")
	o, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	P := []model.Pair{{Concept: a, Sentiment: 0.5}, {Concept: bc, Sentiment: 0.6}}
	g := coverage.BuildPairs(model.Metric{Ont: o, Epsilon: 0.5}, P)
	res := Greedy(g, 1)
	if len(res.Selected) != 1 || res.Selected[0] != 0 {
		t.Fatalf("Greedy selected %v, want [0]", res.Selected)
	}
	// Cost: a covered at 0, b covered at 1 → 1.
	if res.Cost != 1 {
		t.Fatalf("Greedy cost = %v, want 1", res.Cost)
	}
}

func TestGreedyCostMatchesGraphCost(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(rng, 14, 20)
		for _, k := range []int{0, 1, 3} {
			if k > g.NumCandidates {
				continue
			}
			res := Greedy(g, k)
			if len(res.Selected) != k {
				t.Fatalf("trial %d: selected %d, want %d", trial, len(res.Selected), k)
			}
			if got := g.CostOf(res.Selected); got != res.Cost {
				t.Fatalf("trial %d k %d: reported cost %v, recomputed %v", trial, k, res.Cost, got)
			}
		}
	}
}

// Property: the lazy greedy and the rebuild-everything greedy make the
// same selections in the same order at the same cost, exact gain ties
// included (both break ties by the smaller candidate index).
func TestQuickGreedyMatchesRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 12, 18)
		k := rng.Intn(g.NumCandidates + 1)
		a := Greedy(g, k)
		b := GreedyRebuild(g, k)
		if !reflect.DeepEqual(a.Selected, b.Selected) || a.Cost != b.Cost {
			t.Logf("k=%d: Greedy (%v, %v) vs GreedyRebuild (%v, %v)", k, a.Selected, a.Cost, b.Selected, b.Cost)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyMatchesRebuildOnDoctorItems runs the same equivalence on
// annotated doctor items over the synthetic medical ontology, where
// many candidates share a concept and sentiment and exact gain ties
// are common — at the smallest, a middle and the largest Table 1 item
// size, every granularity and k up to 20.
func TestGreedyMatchesRebuildOnDoctorItems(t *testing.T) {
	ont := dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1})
	metric := model.Metric{Ont: ont, Epsilon: 0.5}
	pipe := extract.NewPipeline(extract.NewMatcher(ont), sentiment.Lexicon{})
	for _, n := range []int{43, 120, 354} {
		cfg := dataset.DoctorConfig(1)
		cfg.NumItems, cfg.TotalReviews, cfg.MinReviews, cfg.MaxReviews = 1, n, n, n
		raw := dataset.GenerateWithOntology(cfg, ont).Items[0]
		raws := make([]extract.RawReview, len(raw.Reviews))
		for i, r := range raw.Reviews {
			raws[i] = extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating}
		}
		item := pipe.AnnotateItem(raw.ID, raw.Name, raws)
		for _, gran := range []model.Granularity{
			model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
		} {
			g := coverage.Build(metric, item, gran)
			for _, k := range []int{1, 3, 5, 10, 20} {
				k = min(k, g.NumCandidates)
				got, want := Greedy(g, k), GreedyRebuild(g, k)
				if !reflect.DeepEqual(got.Selected, want.Selected) || got.Cost != want.Cost {
					t.Fatalf("%d reviews/%v/k=%d: Greedy (%v, %v), GreedyRebuild (%v, %v)",
						n, gran, k, got.Selected, got.Cost, want.Selected, want.Cost)
				}
			}
		}
	}
}

// TestGreedyExactLargeGains pins exact integer gains above 2^53, where
// float64 rounds two different gains to one value. Two candidates each
// cover only their own target, at distance 0, so a candidate's gain is
// its target's Weight·RootDist; index 1's gain is larger by one, and
// Algorithm 2 picks it first. The first graph's gains pack into heap
// entries; the second's empty-summary cost needs 63 bits, which leaves
// too few for two candidates' index bits, so GreedyWarm falls back to
// GreedyRebuild.
func TestGreedyExactLargeGains(t *testing.T) {
	var bld ontology.Builder
	root := bld.AddConcept("root")
	a := bld.Child(root, "a")
	bc := bld.Child(root, "b")
	o, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name         string
		dist, weight [2]int32
		packs        bool
	}{
		// 2^27·(2^27+2) and (2^27+1)^2.
		{"packed", [2]int32{1 << 27, 1<<27 + 1}, [2]int32{1<<27 + 2, 1<<27 + 1}, true},
		// (2^31−3)(2^31−1) and (2^31−2)^2.
		{"fallback", [2]int32{1<<31 - 3, 1<<31 - 2}, [2]int32{1<<31 - 1, 1<<31 - 2}, false},
	} {
		g := coverage.BuildPairs(model.Metric{Ont: o, Epsilon: 0.1}, []model.Pair{{Concept: a}, {Concept: bc}})
		for u := 0; u < 2; u++ {
			if pairs, dists := g.CoveredRow(u); len(pairs) != 1 || pairs[0] != int32(u) || dists[0] != 0 {
				t.Fatalf("%s: candidate %d covers %v at %v, want only target %d at 0", tc.name, u, pairs, dists, u)
			}
		}
		copy(g.RootDist, tc.dist[:])
		copy(g.Weight, tc.weight[:])
		gain0 := int(tc.dist[0]) * int(tc.weight[0])
		gain1 := int(tc.dist[1]) * int(tc.weight[1])
		if gain1 != gain0+1 || float64(gain1) != float64(gain0) {
			t.Fatalf("%s: gains %d, %d are not one apart and equal in float64", tc.name, gain0, gain1)
		}
		if _, ok := packBits(uint64(gain0+gain1), 2); ok != tc.packs {
			t.Fatalf("%s: packBits = %v, want %v", tc.name, ok, tc.packs)
		}
		for _, want := range []*Result{
			{Selected: []int{1}, Cost: float64(gain0)},
			{Selected: []int{1, 0}, Cost: 0},
		} {
			k := len(want.Selected)
			warm, _ := GreedyWarm(g, k, nil)
			requireSameResult(t, Greedy(g, k), want, fmt.Sprintf("%s/Greedy/k=%d", tc.name, k))
			requireSameResult(t, warm, want, fmt.Sprintf("%s/GreedyWarm/k=%d", tc.name, k))
			requireSameResult(t, GreedyRebuild(g, k), want, fmt.Sprintf("%s/GreedyRebuild/k=%d", tc.name, k))
		}
	}
}

func TestILPMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 10, 9)
		for k := 0; k <= 3 && k <= g.NumCandidates; k++ {
			ilp, err := ILP(g, k, nil)
			if err != nil {
				t.Fatalf("trial %d k %d: %v", trial, k, err)
			}
			bf := BruteForce(g, k)
			if math.Abs(ilp.Cost-bf.Cost) > 1e-9 {
				t.Fatalf("trial %d k %d: ILP %v, brute force %v", trial, k, ilp.Cost, bf.Cost)
			}
			if len(ilp.Selected) != k {
				t.Fatalf("trial %d k %d: ILP selected %d", trial, k, len(ilp.Selected))
			}
		}
	}
}

func TestILPOnGroupGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := randomGroupGraph(rng)
		k := 1 + rng.Intn(2)
		if k > g.NumCandidates {
			k = g.NumCandidates
		}
		ilp, err := ILP(g, k, nil)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bf := BruteForce(g, k)
		if math.Abs(ilp.Cost-bf.Cost) > 1e-9 {
			t.Fatalf("trial %d: ILP %v, brute force %v", trial, ilp.Cost, bf.Cost)
		}
	}
}

func TestGreedyNeverBeatsILPAndStaysClose(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 12, 14)
		k := 1 + rng.Intn(3)
		if k > g.NumCandidates {
			k = g.NumCandidates
		}
		greedy := Greedy(g, k)
		opt := BruteForce(g, k)
		if greedy.Cost < opt.Cost-1e-9 {
			t.Fatalf("trial %d: greedy %v beat optimal %v", trial, greedy.Cost, opt.Cost)
		}
	}
}

func TestRandomizedRoundingValidAndReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(rng, 12, 16)
	k := 2
	if k > g.NumCandidates {
		k = g.NumCandidates
	}
	r1, err := RandomizedRounding(g, k, rand.New(rand.NewSource(99)), nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RandomizedRounding(g, k, rand.New(rand.NewSource(99)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Selected) != k {
		t.Fatalf("RR selected %d, want %d", len(r1.Selected), k)
	}
	for i := range r1.Selected {
		if r1.Selected[i] != r2.Selected[i] {
			t.Fatalf("RR not reproducible: %v vs %v", r1.Selected, r2.Selected)
		}
	}
	seen := map[int]bool{}
	for _, u := range r1.Selected {
		if seen[u] {
			t.Fatalf("RR selected %d twice", u)
		}
		seen[u] = true
		if u < 0 || u >= g.NumCandidates {
			t.Fatalf("RR selected out-of-range %d", u)
		}
	}
	// LP objective is a lower bound on the realized cost.
	if r1.Cost < r1.LPObjective-1e-6 {
		t.Fatalf("RR cost %v below LP bound %v", r1.Cost, r1.LPObjective)
	}
}

func TestRandomizedRoundingNearOptimalOnAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randomGraph(rng, 14, 22)
	k := 3
	if k > g.NumCandidates {
		k = g.NumCandidates
	}
	opt := BruteForce(g, k)
	sum := 0.0
	const runs = 30
	for i := 0; i < runs; i++ {
		r, err := RandomizedRounding(g, k, rand.New(rand.NewSource(int64(i))), nil)
		if err != nil {
			t.Fatal(err)
		}
		sum += r.Cost
	}
	avg := sum / runs
	// The paper reports RR within 1-2% of optimal on its instances;
	// on tiny random instances we allow a loose factor but it must be
	// in the right ballpark (and never below optimal).
	if avg < opt.Cost-1e-9 {
		t.Fatalf("average RR cost %v below optimum %v", avg, opt.Cost)
	}
	if opt.Cost > 0 && avg > 3*opt.Cost+3 {
		t.Fatalf("average RR cost %v too far above optimum %v", avg, opt.Cost)
	}
}

func TestSampleWithoutReplacementDegenerateWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// Only 1 positive weight but k = 3: deterministic fill must kick in.
	got := sampleWithoutReplacement([]float64{0, 1, 0, 0}, 3, rng)
	if len(got) != 3 {
		t.Fatalf("sampled %d, want 3", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatalf("duplicate sample %d in %v", i, got)
		}
		seen[i] = true
	}
	if !seen[1] {
		t.Fatalf("the one positive-weight index was not sampled: %v", got)
	}
}

func TestRunDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := randomGraph(rng, 10, 12)
	k := 2
	if k > g.NumCandidates {
		k = g.NumCandidates
	}
	for _, a := range []Algorithm{AlgILP, AlgRR, AlgGreedy} {
		res, err := Run(a, g, k, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if len(res.Selected) != k {
			t.Fatalf("%v: selected %d, want %d", a, len(res.Selected), k)
		}
	}
	if _, err := Run(Algorithm(42), g, k, nil); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestAlgorithmString(t *testing.T) {
	if AlgILP.String() != "ILP" || AlgRR.String() != "RR" || AlgGreedy.String() != "Greedy" {
		t.Fatal("algorithm names wrong")
	}
}

func TestCheckKPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomGraph(rng, 6, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k out of range")
		}
	}()
	Greedy(g, g.NumCandidates+1)
}

func TestRandomizedRoundingBestNeverWorseThanSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 14, 24)
		k := 2
		if k > g.NumCandidates {
			k = g.NumCandidates
		}
		single, err := RandomizedRounding(g, k, rand.New(rand.NewSource(int64(trial))), nil)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := RandomizedRoundingBest(g, k, 8, rand.New(rand.NewSource(int64(trial))), nil)
		if err != nil {
			t.Fatal(err)
		}
		// The multi-trial variant's first sample equals the single run
		// (same rng stream), so best-of-8 can only improve on it.
		if multi.Cost > single.Cost+1e-9 {
			t.Fatalf("trial %d: best-of-8 cost %v worse than single %v", trial, multi.Cost, single.Cost)
		}
		if len(multi.Selected) != k {
			t.Fatalf("trial %d: selected %v", trial, multi.Selected)
		}
		// Never beats the optimum.
		if opt := BruteForce(g, k); multi.Cost < opt.Cost-1e-9 {
			t.Fatalf("trial %d: RR-best %v below optimum %v", trial, multi.Cost, opt.Cost)
		}
	}
}

func TestRandomizedRoundingBestClampsTrials(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomGraph(rng, 8, 8)
	res, err := RandomizedRoundingBest(g, 1, 0, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("selected %v", res.Selected)
	}
}

// TestWeightedGraphMatchesExpandedMultiset: greedy and ILP on a
// candidate-merged (weighted) graph must report the same optimal costs as on
// the expanded multiset graph.
func TestWeightedGraphMatchesExpandedMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		m, P := randomPairs(rng, 10, 16)
		full := coverage.BuildPairs(m, P)
		q := mergedPairsGraph(m, P)
		k := 2
		if k > q.NumCandidates {
			k = q.NumCandidates
		}
		// ILP optima agree (the merged instance has the same optimal
		// cost because any multiset selection maps to a distinct-pair
		// selection of equal cost and vice versa).
		fullOpt, err := ILP(full, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		qOpt, err := ILP(q, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fullOpt.Cost-qOpt.Cost) > 1e-9 {
			t.Fatalf("trial %d: multiset ILP %v, weighted ILP %v", trial, fullOpt.Cost, qOpt.Cost)
		}
		// Greedy on the weighted graph is still a valid upper bound and
		// its reported cost matches CostOf.
		gr := Greedy(q, k)
		if got := q.CostOf(gr.Selected); got != gr.Cost {
			t.Fatalf("trial %d: weighted greedy cost %v, recomputed %v", trial, gr.Cost, got)
		}
		if gr.Cost < qOpt.Cost-1e-9 {
			t.Fatalf("trial %d: weighted greedy %v beat optimum %v", trial, gr.Cost, qOpt.Cost)
		}
	}
}

// mergedPairsGraph builds the candidate-merged (weighted) variant of
// a pair instance: one candidate per distinct pair, in order of first
// occurrence, over P's distinct pairs weighted by multiplicity.
func mergedPairsGraph(m model.Metric, P []model.Pair) *coverage.Graph {
	seen := make(map[model.Pair]bool, len(P))
	var groups [][]model.Pair
	for i, p := range P {
		if !seen[p] {
			seen[p] = true
			groups = append(groups, P[i:i+1])
		}
	}
	return coverage.BuildGroups(m, groups, P)
}

// TestQuickTheorem4GreedyBound verifies Wolsey's guarantee as the
// paper states it (Theorem 4): the size-k greedy summary costs at most
// opt_{k'}(P) where k' = ⌊k / H(Δ·n)⌋, H the harmonic number and Δ the
// maximum ontology depth. (The bound is loose — k' is usually much
// smaller than k — but it must never be violated.)
func TestQuickTheorem4GreedyBound(t *testing.T) {
	harmonic := func(n int) float64 {
		h := 0.0
		for i := 1; i <= n; i++ {
			h += 1 / float64(i)
		}
		return h
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, P := randomPairs(rng, 10, 10)
		g := coverage.BuildPairs(m, P)
		n := len(P)
		delta := g.Metric.Ont.MaxDepth()
		if delta < 1 {
			delta = 1
		}
		for k := 1; k <= 6 && k <= g.NumCandidates; k++ {
			kPrime := int(math.Floor(float64(k) / harmonic(delta*n)))
			if kPrime < 0 {
				kPrime = 0
			}
			if kPrime > g.NumCandidates {
				kPrime = g.NumCandidates
			}
			greedy := Greedy(g, k)
			optKPrime := BruteForce(g, kPrime)
			if greedy.Cost > optKPrime.Cost+1e-9 {
				t.Logf("seed %d k %d k' %d: greedy %v > opt_{k'} %v",
					seed, k, kPrime, greedy.Cost, optKPrime.Cost)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
