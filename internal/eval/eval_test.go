package eval

import (
	"math"
	"math/rand"
	"testing"

	"osars/internal/baselines"
	"osars/internal/coverage"
	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontology"
	"osars/internal/sentiment"
	"osars/internal/summarize"
)

func chainOnt(t testing.TB) (*ontology.Ontology, map[string]ontology.ConceptID) {
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

func TestSentErrExactConcept(t *testing.T) {
	o, ids := chainOnt(t)
	P := []model.Pair{{Concept: ids["leaf"], Sentiment: 0.8}}
	F := []model.Pair{{Concept: ids["leaf"], Sentiment: 0.5}}
	if got := SentErr(o, F, P, false); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("SentErr = %v, want 0.3", got)
	}
}

func TestSentErrLowestAncestor(t *testing.T) {
	o, ids := chainOnt(t)
	P := []model.Pair{{Concept: ids["leaf"], Sentiment: 0.8}}
	// F has both root (sentiment 0.0) and mid (0.6): the LOWEST
	// ancestor (mid) must be used → err 0.2, not 0.8.
	F := []model.Pair{
		{Concept: ids["root"], Sentiment: 0.0},
		{Concept: ids["mid"], Sentiment: 0.6},
	}
	if got := SentErr(o, F, P, false); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("SentErr = %v, want 0.2 (lowest ancestor)", got)
	}
}

func TestSentErrMinOverSameConcept(t *testing.T) {
	o, ids := chainOnt(t)
	P := []model.Pair{{Concept: ids["leaf"], Sentiment: 0.0}}
	F := []model.Pair{
		{Concept: ids["leaf"], Sentiment: 0.9},
		{Concept: ids["leaf"], Sentiment: -0.1},
	}
	if got := SentErr(o, F, P, false); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("SentErr = %v, want 0.1 (min over summary pairs)", got)
	}
}

func TestSentErrMissingConcept(t *testing.T) {
	o, ids := chainOnt(t)
	P := []model.Pair{{Concept: ids["sib"], Sentiment: -0.6}}
	F := []model.Pair{{Concept: ids["leaf"], Sentiment: 0.5}} // unrelated
	if got := SentErr(o, F, P, false); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("plain SentErr = %v, want |s_p| = 0.6", got)
	}
	// Penalized: max(|1-(-0.6)|, |-1-(-0.6)|) = 1.6.
	if got := SentErr(o, F, P, true); math.Abs(got-1.6) > 1e-12 {
		t.Fatalf("penalized SentErr = %v, want 1.6", got)
	}
}

func TestSentErrDescendantDoesNotCover(t *testing.T) {
	o, ids := chainOnt(t)
	// Summary has the leaf; P asks about mid. A descendant is NOT an
	// ancestor: fallback branch applies.
	P := []model.Pair{{Concept: ids["mid"], Sentiment: 0.4}}
	F := []model.Pair{{Concept: ids["leaf"], Sentiment: 0.4}}
	if got := SentErr(o, F, P, false); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("SentErr = %v, want 0.4", got)
	}
}

func TestSentErrRMSEAggregation(t *testing.T) {
	o, ids := chainOnt(t)
	P := []model.Pair{
		{Concept: ids["leaf"], Sentiment: 0.5}, // err 0.5 vs F below
		{Concept: ids["sib"], Sentiment: 0.3},  // missing → 0.3
	}
	F := []model.Pair{{Concept: ids["leaf"], Sentiment: 1.0}}
	want := math.Sqrt((0.25 + 0.09) / 2)
	if got := SentErr(o, F, P, false); math.Abs(got-want) > 1e-12 {
		t.Fatalf("SentErr = %v, want %v", got, want)
	}
}

func TestSentErrEmpty(t *testing.T) {
	o, _ := chainOnt(t)
	if got := SentErr(o, nil, nil, false); got != 0 {
		t.Fatalf("SentErr on empty P = %v", got)
	}
}

func TestSummaryPairs(t *testing.T) {
	item := &model.Item{Reviews: []model.Review{
		{Sentences: []model.Sentence{
			{Pairs: []model.Pair{{Concept: 1, Sentiment: 0.1}}},                               // 0
			{Pairs: []model.Pair{{Concept: 2, Sentiment: 0.2}, {Concept: 3, Sentiment: 0.3}}}, // 1
		}},
		{Sentences: []model.Sentence{
			{Pairs: []model.Pair{{Concept: 4, Sentiment: 0.4}}}, // 2
		}},
	}}
	got := SummaryPairs(item, []int{1, 2})
	if len(got) != 3 {
		t.Fatalf("SummaryPairs = %v", got)
	}
	if got[0].Concept != 2 || got[2].Concept != 4 {
		t.Fatalf("wrong pairs: %v", got)
	}
}

func TestElbowDetectsKnee(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	// Sharp knee at x=0.5 (index 4).
	ys := []float64{0.1, 0.3, 0.5, 0.7, 0.85, 0.87, 0.89, 0.90, 0.91, 0.92}
	if got := Elbow(xs, ys); got != 4 {
		t.Fatalf("Elbow = %d, want 4", got)
	}
}

func TestElbowDegenerate(t *testing.T) {
	if Elbow(nil, nil) != -1 {
		t.Fatal("empty elbow should be -1")
	}
	if Elbow([]float64{1}, []float64{2}) != 0 {
		t.Fatal("single-point elbow should be 0")
	}
	// Perfectly straight line: any index is acceptable; must not panic.
	got := Elbow([]float64{0, 1, 2}, []float64{0, 1, 2})
	if got < 0 || got > 2 {
		t.Fatalf("Elbow on line = %d", got)
	}
}

func TestCoverageRateMonotoneInEpsilon(t *testing.T) {
	o, ids := chainOnt(t)
	P := []model.Pair{
		{Concept: ids["leaf"], Sentiment: 0.9},
		{Concept: ids["leaf"], Sentiment: 0.1},
		{Concept: ids["mid"], Sentiment: 0.5},
		{Concept: ids["sib"], Sentiment: -0.5},
	}
	eps := []float64{0.1, 0.5, 1.0, 2.0}
	m := model.Metric{Ont: o, Epsilon: 0.5}
	rates := EpsilonSweep(m, P, 2, eps)
	for i := 1; i < len(rates); i++ {
		if rates[i] < rates[i-1]-1e-9 {
			t.Fatalf("coverage rate decreased: %v", rates)
		}
	}
	for _, r := range rates {
		if r < 0 || r > 1 {
			t.Fatalf("rate out of [0,1]: %v", rates)
		}
	}
	got, _ := SelectEpsilon(m, P, 2, eps)
	found := false
	for _, e := range eps {
		if e == got {
			found = true
		}
	}
	if !found {
		t.Fatalf("SelectEpsilon returned %v not in grid", got)
	}
}

// TestCoverageRateCountsDuplicates checks the §5.3 rate on a multiset
// with repeated pairs against a count made pair by pair with
// Metric.PairDistance: every copy of a covered pair counts.
func TestCoverageRateCountsDuplicates(t *testing.T) {
	o, ids := chainOnt(t)
	leaf := model.Pair{Concept: ids["leaf"], Sentiment: 0.9}
	mid := model.Pair{Concept: ids["mid"], Sentiment: 0.8}
	sib := model.Pair{Concept: ids["sib"], Sentiment: -0.5}
	far := model.Pair{Concept: ids["leaf"], Sentiment: -0.9}
	P := []model.Pair{leaf, sib, leaf, mid, leaf, sib, far, leaf, mid}
	m := model.Metric{Ont: o, Epsilon: 0.5}
	for k := 0; k <= 3; k++ {
		selected := summarize.Greedy(coverage.BuildPairs(m, P), k).Selected
		covered := 0
		for _, p := range P {
			for _, u := range selected {
				if m.PairDistance(P[u], p) < model.Infinite {
					covered++
					break
				}
			}
		}
		want := float64(covered) / float64(len(P))
		if got := CoverageRate(m, P, k); got != want {
			t.Fatalf("k=%d: CoverageRate = %v, want %d of %d pairs = %v", k, got, covered, len(P), want)
		}
	}
}

// generatedItems annotates a few generated items end to end.
func generatedItems(t testing.TB, n int) ([]*model.Item, model.Metric) {
	t.Helper()
	c := dataset.Generate(dataset.SmallCellPhoneConfig(4))
	p := extract.NewPipeline(extract.NewMatcher(c.Ont), sentiment.Lexicon{})
	var items []*model.Item
	for i := 0; i < n && i < len(c.Items); i++ {
		var raws []extract.RawReview
		for _, r := range c.Items[i].Reviews[:15] {
			raws = append(raws, extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating})
		}
		items = append(items, p.AnnotateItem(c.Items[i].ID, c.Items[i].Name, raws))
	}
	return items, model.Metric{Ont: c.Ont, Epsilon: 0.5}
}

func TestRunQuantitativeShape(t *testing.T) {
	items, m := generatedItems(t, 2)
	rows, err := RunQuantitative(items, m, QuantConfig{Ks: []int{2, 4}})
	if err != nil {
		t.Fatal(err)
	}
	// 3 granularities × 2 ks × 3 algorithms.
	if len(rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(rows))
	}
	// Paper invariant: cost(ILP) ≤ cost(RR) and cost(ILP) ≤
	// cost(Greedy) for every (granularity, k) cell.
	costs := map[[2]int]map[summarize.Algorithm]float64{}
	for _, r := range rows {
		key := [2]int{int(r.Granularity), r.K}
		if costs[key] == nil {
			costs[key] = map[summarize.Algorithm]float64{}
		}
		costs[key][r.Algorithm] = r.AvgCost
		if r.String() == "" {
			t.Fatal("row String empty")
		}
	}
	for key, byAlg := range costs {
		if byAlg[summarize.AlgILP] > byAlg[summarize.AlgRR]+1e-9 {
			t.Fatalf("cell %v: ILP cost %v > RR %v", key, byAlg[summarize.AlgILP], byAlg[summarize.AlgRR])
		}
		if byAlg[summarize.AlgILP] > byAlg[summarize.AlgGreedy]+1e-9 {
			t.Fatalf("cell %v: ILP cost %v > Greedy %v", key, byAlg[summarize.AlgILP], byAlg[summarize.AlgGreedy])
		}
	}
}

func TestRunQualitativeShape(t *testing.T) {
	items, m := generatedItems(t, 2)
	rows := RunQualitative(items, m, []int{3}, nil)
	// 1 ours + 5 baselines.
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	var ours, worstBaseline float64
	for _, r := range rows {
		if r.SentErr < 0 || r.SentErrPenalized < r.SentErr-1e-9 {
			t.Fatalf("implausible errors: %+v", r)
		}
		if r.Method == "ours (greedy)" {
			ours = r.SentErr
		} else if r.SentErr > worstBaseline {
			worstBaseline = r.SentErr
		}
		if r.String() == "" {
			t.Fatal("row String empty")
		}
	}
	if ours > worstBaseline+1e-9 {
		t.Fatalf("greedy sent-err %v worse than every baseline (worst %v)", ours, worstBaseline)
	}
}

func TestGreedySelectorReturnsKSentences(t *testing.T) {
	items, m := generatedItems(t, 1)
	sel := GreedySelector{Metric: m}.SelectSentences(items[0], 4)
	if len(sel) != 4 {
		t.Fatalf("selected %v", sel)
	}
	var _ baselines.Selector = GreedySelector{}
}

func TestCoverageReport(t *testing.T) {
	o, ids := chainOnt(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	P := []model.Pair{
		{Concept: ids["leaf"], Sentiment: 0.5}, // covered at 1 by mid
		{Concept: ids["mid"], Sentiment: 0.5},  // covered at 0 (itself)
		{Concept: ids["sib"], Sentiment: 0.5},  // uncovered → root
	}
	g := coverage.BuildPairs(m, P)
	rep := Coverage(g, []int{1}) // select the mid pair
	if math.Abs(rep.CoveredRate-2.0/3) > 1e-12 {
		t.Fatalf("CoveredRate = %v, want 2/3", rep.CoveredRate)
	}
	if math.Abs(rep.ExactRate-1.0/3) > 1e-12 {
		t.Fatalf("ExactRate = %v, want 1/3", rep.ExactRate)
	}
	if math.Abs(rep.AvgCoveredDistance-0.5) > 1e-12 {
		t.Fatalf("AvgCoveredDistance = %v, want 0.5", rep.AvgCoveredDistance)
	}
	// Cost = 1 (leaf via mid) + 0 + 1 (sib via root) = 2; empty = 2+1+1.
	if math.Abs(rep.NormalizedCost-2.0/4) > 1e-12 {
		t.Fatalf("NormalizedCost = %v, want 0.5", rep.NormalizedCost)
	}
	if rep.String() == "" {
		t.Fatal("empty String")
	}
}

func TestCoverageReportEmpty(t *testing.T) {
	o, _ := chainOnt(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	rep := Coverage(coverage.BuildPairs(m, nil), nil)
	if rep != (CoverageReport{}) {
		t.Fatalf("empty report = %+v", rep)
	}
}

func TestCoverageMonotoneInSelection(t *testing.T) {
	items, m := generatedItems(t, 1)
	g := coverage.BuildPairs(m, items[0].Pairs())
	res := summarize.Greedy(g, 8)
	prev := CoverageReport{NormalizedCost: 1}
	for k := 1; k <= 8; k++ {
		rep := Coverage(g, res.Selected[:k])
		if rep.CoveredRate < prev.CoveredRate-1e-12 {
			t.Fatalf("covered rate decreased at k=%d", k)
		}
		if rep.NormalizedCost > prev.NormalizedCost+1e-12 {
			t.Fatalf("normalized cost increased at k=%d", k)
		}
		prev = rep
	}
}

func TestPairedBootstrapClearWinner(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 40)
	b := make([]float64, 40)
	for i := range a {
		a[i] = 0.3 + 0.01*rng.Float64()
		b[i] = 0.5 + 0.01*rng.Float64()
	}
	p := PairedBootstrapPValue(a, b, 2000, rng)
	if p > 0.01 {
		t.Fatalf("p = %v for a clear winner, want ~0", p)
	}
	// Reversed comparison must be non-significant.
	if p := PairedBootstrapPValue(b, a, 2000, rng); p < 0.95 {
		t.Fatalf("reversed p = %v, want ~1", p)
	}
}

func TestPairedBootstrapNoDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := make([]float64, 30)
	b := make([]float64, 30)
	for i := range a {
		v := rng.Float64()
		a[i], b[i] = v+0.05*rng.NormFloat64(), v+0.05*rng.NormFloat64()
	}
	p := PairedBootstrapPValue(a, b, 2000, rng)
	if p < 0.05 || p > 0.95 {
		t.Fatalf("p = %v for identical methods, want mid-range", p)
	}
}

func TestPairedBootstrapEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if p := PairedBootstrapPValue(nil, nil, 100, rng); p != 1 {
		t.Fatalf("empty p = %v, want 1", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unpaired lengths")
		}
	}()
	PairedBootstrapPValue([]float64{1}, []float64{1, 2}, 10, rng)
}

func TestPerItemSentErr(t *testing.T) {
	items, m := generatedItems(t, 3)
	sels := []baselines.Selector{GreedySelector{Metric: m}, baselines.MostPopular{}}
	scores := PerItemSentErr(items, m, 4, sels, false)
	if len(scores) != 2 {
		t.Fatalf("methods = %d", len(scores))
	}
	for name, s := range scores {
		if len(s) != 3 {
			t.Fatalf("%s has %d scores, want 3", name, len(s))
		}
		for _, v := range s {
			if v < 0 {
				t.Fatalf("%s negative sent-err", name)
			}
		}
	}
}
