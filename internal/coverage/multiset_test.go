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
		item := coverage.DupItem(rng, o, 1+rng.Intn(8))
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
			coverage.DupItem(rng, o, 2+rng.Intn(10)),
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

// requireClassesMatchMultiset asserts that an index-frozen graph, whose
// candidates share forward rows by class, agrees with the multiset
// graph of the same candidates, which keeps one row per candidate and
// one target per pair: every candidate's row, Greedy's selections in
// order against GreedyRebuild's for k up to |U| (past the class count,
// where the zero-gain fill runs; warm-started from prev, the previous
// step's result per k), and CostOf on random selections.
func requireClassesMatchMultiset(t *testing.T, rng *rand.Rand, got, want *coverage.Graph, prev map[int]*summarize.Result, label string) {
	t.Helper()
	n := got.NumCandidates
	if n != want.NumCandidates {
		t.Fatalf("%s: NumCandidates = %d, multiset %d", label, n, want.NumCandidates)
	}
	target := make(map[model.Pair]int32, len(got.Pairs))
	for w, p := range got.Pairs {
		target[p] = int32(w)
	}
	for u := 0; u < n; u++ {
		// A multiset target is one pair occurrence; every occurrence of
		// a pair lies at the same distance from u as its target does.
		dist := map[int32]int32{}
		pairs, dists := want.CoveredRow(u)
		for i, j := range pairs {
			w := target[want.Pairs[j]]
			if d, ok := dist[w]; ok && d != dists[i] {
				t.Fatalf("%s: candidate %d covers two occurrences of pair %d at %d and %d", label, u, w, d, dists[i])
			}
			dist[w] = dists[i]
		}
		gp, gd := got.CoveredRow(u)
		if len(gp) != len(dist) {
			t.Fatalf("%s: candidate %d covers %d targets, multiset %d", label, u, len(gp), len(dist))
		}
		for i, w := range gp {
			if d, ok := dist[w]; !ok || d != gd[i] || (i > 0 && gp[i-1] >= w) {
				t.Fatalf("%s: candidate %d row %v at %v, multiset targets %v", label, u, gp, gd, dist)
			}
		}
	}
	order := summarize.GreedyRebuild(want, n).Selected
	classes := got.NumClasses()
	for _, k := range []int{1, 2, 3, classes - 1, classes, classes + 1, n} {
		if k < 0 || k > n {
			continue
		}
		res, _ := summarize.GreedyWarm(got, k, prev[k])
		if !reflect.DeepEqual(res.Selected, order[:k]) {
			t.Fatalf("%s/k=%d: Greedy selects %v, multiset GreedyRebuild %v", label, k, res.Selected, order[:k])
		}
		if c := want.CostOf(order[:k]); res.Cost != c {
			t.Fatalf("%s/k=%d: Greedy costs %v, multiset %v", label, k, res.Cost, c)
		}
		prev[k] = res
	}
	for trial := 0; trial < 4; trial++ {
		var sel []int
		for u := 0; u < n; u++ {
			if rng.Intn(3) == 0 {
				sel = append(sel, u)
			}
		}
		if g, w := got.CostOf(sel), want.CostOf(sel); g != w {
			t.Fatalf("%s: CostOf(%v) = %v, multiset %v", label, sel, g, w)
		}
	}
}

// FuzzIndexClassesMatchMultiset merges a duplicate-dense item into an
// index at every granularity and checks each frozen graph against the
// multiset graph of the same prefix (requireClassesMatchMultiset). The
// inputs decode into the seed of the random DAG and the item, the DAG's
// size, ε, the number of reviews, and the append schedule: one chunk of
// 0–3 reviews per byte of chunks (at most 16), then the rest.
func FuzzIndexClassesMatchMultiset(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(1), uint8(6), []byte{1, 2, 3})
	f.Add(int64(7), uint8(12), uint8(0), uint8(10), []byte{0, 1, 0, 4})
	f.Add(int64(42), uint8(1), uint8(2), uint8(3), []byte{})
	f.Add(int64(-5), uint8(15), uint8(3), uint8(11), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, seed int64, concepts, eps, reviews uint8, chunks []byte) {
		rng := rand.New(rand.NewSource(seed))
		o := coverage.RandomDAG(t, rng, 1+int(concepts%16))
		m := model.Metric{Ont: o, Epsilon: []float64{0, 0.5, 1, 2}[eps%4]}
		item := coverage.DupItem(rng, o, 1+int(reviews%12))
		for _, g := range granularities {
			idx := coverage.NewIndex(m, g)
			prev := map[int]*summarize.Result{}
			for step, done := 0, 0; done < len(item.Reviews); step++ {
				chunk := len(item.Reviews) - done
				if step < min(len(chunks), 16) {
					chunk = min(chunk, int(chunks[step]%4))
				}
				idx.Merge(item.Reviews[done : done+chunk])
				done += chunk
				prefix := &model.Item{ID: item.ID, Reviews: item.Reviews[:done]}
				requireClassesMatchMultiset(t, rng, idx.Freeze(), multisetGraph(m, prefix, g), prev,
					fmt.Sprintf("%v/step%d(%d reviews)", g, step, done))
			}
		}
	})
}
