package coverage_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"osars/internal/coverage"
	"osars/internal/dataset"
	"osars/internal/eval"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontology"
	"osars/internal/sentiment"
	"osars/internal/summarize"
)

var granularities = []model.Granularity{
	model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
}

// multisetGraph is the undeduplicated graph of the item at the
// granularity: the same candidates as Build, one target per pair of P.
func multisetGraph(m model.Metric, item *model.Item, g model.Granularity) *coverage.Graph {
	var groups [][]model.Pair
	var pairs []model.Pair
	switch g {
	case model.GranularityPairs:
		pairs = item.Pairs()
		for i := range pairs {
			groups = append(groups, pairs[i:i+1])
		}
	case model.GranularitySentences:
		groups, pairs = coverage.SentenceGroups(item)
	case model.GranularityReviews:
		groups, pairs = coverage.ReviewGroups(item)
	}
	return coverage.BuildMultiset(m, groups, pairs)
}

// requireSameResult asserts two solver results select the same
// candidates in the same order at the same cost.
func requireSameResult(t *testing.T, got, want *summarize.Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Selected, want.Selected) || got.Cost != want.Cost {
		t.Fatalf("%s: got (%v, %v), multiset (%v, %v)", label, got.Selected, got.Cost, want.Selected, want.Cost)
	}
}

// requireMatchesMultiset asserts that a deduplicated graph selects and
// prices exactly like the multiset graph over the same candidates:
// greedy (lazy and rebuild), local search, the ILP's optimum when ilp
// is set, CostOf on random selections, EmptyCost and the coverage
// report.
func requireMatchesMultiset(t *testing.T, rng *rand.Rand, got, want *coverage.Graph, ilp bool, label string) {
	t.Helper()
	if got.NumCandidates != want.NumCandidates {
		t.Fatalf("%s: NumCandidates = %d, multiset %d", label, got.NumCandidates, want.NumCandidates)
	}
	total := 0
	for _, w := range got.Weight {
		total += int(w)
	}
	if total != len(want.Pairs) {
		t.Fatalf("%s: weights sum to %d, want |P| = %d", label, total, len(want.Pairs))
	}
	if got.EmptyCost() != want.EmptyCost() {
		t.Fatalf("%s: EmptyCost = %v, multiset %v", label, got.EmptyCost(), want.EmptyCost())
	}
	for _, k := range []int{1, 2, 5, 10} {
		k = min(k, got.NumCandidates)
		lbl := fmt.Sprintf("%s/k=%d", label, k)
		gr := summarize.Greedy(got, k)
		requireSameResult(t, gr, summarize.Greedy(want, k), lbl+"/Greedy")
		requireSameResult(t, summarize.GreedyRebuild(got, k), summarize.GreedyRebuild(want, k), lbl+"/GreedyRebuild")
		if g, w := eval.Coverage(got, gr.Selected), eval.Coverage(want, gr.Selected); g != w {
			t.Fatalf("%s: Coverage = %v, multiset %v", lbl, g, w)
		}
	}
	for _, k := range []int{2, 5} {
		k = min(k, got.NumCandidates)
		requireSameResult(t, summarize.LocalSearch(got, k, nil), summarize.LocalSearch(want, k, nil),
			fmt.Sprintf("%s/k=%d/LocalSearch", label, k))
	}
	if ilp {
		for k := 1; k <= 3 && k <= got.NumCandidates; k++ {
			g, err := summarize.ILP(got, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			w, err := summarize.ILP(want, k, nil)
			if err != nil {
				t.Fatal(err)
			}
			if g.Cost != w.Cost {
				t.Fatalf("%s/k=%d: ILP cost %v, multiset %v", label, k, g.Cost, w.Cost)
			}
		}
	}
	for trial := 0; trial < 10; trial++ {
		var sel []int
		for u := 0; u < got.NumCandidates; u++ {
			if rng.Intn(4) == 0 {
				sel = append(sel, u)
			}
		}
		if g, w := got.CostOf(sel), want.CostOf(sel); g != w {
			t.Fatalf("%s: CostOf(%v) = %v, multiset %v", label, sel, g, w)
		}
		if g, w := eval.Coverage(got, sel), eval.Coverage(want, sel); g != w {
			t.Fatalf("%s: Coverage(%v) = %v, multiset %v", label, sel, g, w)
		}
	}
}

// multisetRate is the §5.3 coverage rate counted on the multiset
// graph: the share of P's pairs with a coverer in the size-k greedy
// summary.
func multisetRate(g *coverage.Graph, k int) float64 {
	chosen := make([]bool, g.NumCandidates)
	for _, u := range summarize.Greedy(g, min(k, g.NumCandidates)).Selected {
		chosen[u] = true
	}
	covered := 0
	for w := range g.Pairs {
		cands, _ := g.CoverersRow(w)
		for _, u := range cands {
			if chosen[u] {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(g.Pairs))
}

// requireRateMatchesMultiset compares eval.CoverageRate on P with the
// rate counted on P's multiset graph.
func requireRateMatchesMultiset(t *testing.T, m model.Metric, item *model.Item, label string) {
	t.Helper()
	want := multisetGraph(m, item, model.GranularityPairs)
	for _, k := range []int{1, 5, 10} {
		if got, w := eval.CoverageRate(m, item.Pairs(), k), multisetRate(want, k); got != w {
			t.Fatalf("%s/k=%d: CoverageRate = %v, multiset %v", label, k, got, w)
		}
	}
}

// doctorItem annotates one generated doctor item with n reviews.
func doctorItem(ont *ontology.Ontology, n int) *model.Item {
	cfg := dataset.DoctorConfig(1)
	cfg.NumItems, cfg.TotalReviews, cfg.MinReviews, cfg.MaxReviews = 1, n, n, n
	raw := dataset.GenerateWithOntology(cfg, ont).Items[0]
	raws := make([]extract.RawReview, len(raw.Reviews))
	for i, r := range raw.Reviews {
		raws[i] = extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating}
	}
	pipe := extract.NewPipeline(extract.NewMatcher(ont), sentiment.Lexicon{})
	return pipe.AnnotateItem(raw.ID, raw.Name, raws)
}

// dupItem draws reviews over a handful of concepts and five
// sentiments, so most pairs repeat an earlier one, in the same
// sentence, the same review or an earlier review.
func dupItem(rng *rand.Rand, o *ontology.Ontology, numReviews int) *model.Item {
	concepts := make([]ontology.ConceptID, 2+rng.Intn(4))
	for i := range concepts {
		concepts[i] = ontology.ConceptID(rng.Intn(o.Len()))
	}
	item := &model.Item{ID: "dup", Name: "dup"}
	for ri := 0; ri < numReviews; ri++ {
		r := model.Review{ID: fmt.Sprintf("r%d", ri)}
		for si := 0; si < 1+rng.Intn(3); si++ {
			s := model.Sentence{Text: fmt.Sprintf("s%d/%d", ri, si)}
			for pi := 0; pi < rng.Intn(4); pi++ {
				s.Pairs = append(s.Pairs, model.Pair{
					Concept:   concepts[rng.Intn(len(concepts))],
					Sentiment: float64(rng.Intn(5)-2) / 2,
				})
			}
			r.Sentences = append(r.Sentences, s)
		}
		item.Reviews = append(item.Reviews, r)
	}
	return item
}

// TestMultisetOracleDoctorItems checks Build's deduplicated graphs
// against the multiset graphs on annotated doctor items at the
// smallest, a middle and the largest Table 1 size, at every
// granularity.
func TestMultisetOracleDoctorItems(t *testing.T) {
	ont := dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1})
	m := model.Metric{Ont: ont, Epsilon: 0.5}
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{43, 120, 354} {
		item := doctorItem(ont, n)
		for _, g := range granularities {
			got, want := coverage.Build(m, item, g), multisetGraph(m, item, g)
			if len(got.Pairs) >= len(want.Pairs) {
				t.Fatalf("%d reviews/%v: %d targets for %d pairs, want duplicates merged",
					n, g, len(got.Pairs), len(want.Pairs))
			}
			requireMatchesMultiset(t, rng, got, want, false, fmt.Sprintf("%d reviews/%v", n, g))
		}
		requireRateMatchesMultiset(t, m, item, fmt.Sprintf("%d reviews", n))
	}
}

// TestMultisetOracleRandom checks Build against the multiset graph on
// random DAGs and corpora dense in duplicates, ILP optimum included.
func TestMultisetOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		o := coverage.RandomDAG(t, rng, 3+rng.Intn(12))
		m := model.Metric{Ont: o, Epsilon: []float64{0.1, 0.5, 1.0}[trial%3]}
		item := dupItem(rng, o, 1+rng.Intn(8))
		for _, g := range granularities {
			requireMatchesMultiset(t, rng, coverage.Build(m, item, g), multisetGraph(m, item, g), true,
				fmt.Sprintf("trial%d/%v", trial, g))
		}
		requireRateMatchesMultiset(t, m, item, fmt.Sprintf("trial%d", trial))
	}
}

// TestMultisetOracleIndex merges items into an index in random chunks,
// so later merges raise the weights of targets earlier merges created,
// and checks every frozen graph against the multiset graph of its
// prefix. Graphs frozen earlier must keep their weights.
func TestMultisetOracleIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ont := dataset.MedicalOntology(dataset.MedicalOntologyConfig{Seed: 1})
	type instance struct {
		m    model.Metric
		item *model.Item
	}
	cases := []instance{{model.Metric{Ont: ont, Epsilon: 0.5}, doctorItem(ont, 43)}}
	for trial := 0; trial < 12; trial++ {
		o := coverage.RandomDAG(t, rng, 3+rng.Intn(12))
		cases = append(cases, instance{
			model.Metric{Ont: o, Epsilon: []float64{0.1, 0.5, 1.0}[trial%3]},
			dupItem(rng, o, 2+rng.Intn(10)),
		})
	}
	bumped := false
	for ci, c := range cases {
		for _, g := range granularities {
			idx := coverage.NewIndex(c.m, g)
			var frozen []*coverage.Graph
			var empty []float64
			for done := 0; done < len(c.item.Reviews); {
				chunk := min(1+rng.Intn(3), len(c.item.Reviews)-done)
				idx.Merge(c.item.Reviews[done : done+chunk])
				done += chunk
				got := idx.Freeze()
				prefix := &model.Item{ID: c.item.ID, Reviews: c.item.Reviews[:done]}
				lbl := fmt.Sprintf("case%d/%v/%d reviews", ci, g, done)
				requireMatchesMultiset(t, rng, got, multisetGraph(c.m, prefix, g), false, lbl)
				if n := len(frozen); n > 0 {
					prev := frozen[n-1]
					for w := range prev.Pairs {
						if got.Weight[w] > prev.Weight[w] {
							bumped = true
						}
					}
				}
				frozen = append(frozen, got)
				empty = append(empty, got.EmptyCost())
			}
			for i, f := range frozen {
				if f.EmptyCost() != empty[i] {
					t.Fatalf("case%d/%v: graph frozen at merge %d changed EmptyCost %v -> %v after later merges",
						ci, g, i, empty[i], f.EmptyCost())
				}
			}
		}
	}
	if !bumped {
		t.Fatal("no merge raised the weight of an existing target")
	}
}
