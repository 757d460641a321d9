package summarize

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"osars/internal/coverage"
	"osars/internal/model"
	"osars/internal/ontology"
)

// requireGreedyPrefixes checks that the greedy is prefix-monotone on g:
// for every j ≤ |U|, GreedyWarm(g, j) and GreedyRebuild(g, j) select
// the first j picks of GreedyWarm(g, |U|) and record that selection's
// first j+1 prefix costs, and every recorded prefix cost is CostOf of
// its prefix. Compared with the longest selection, GreedyWarm reports a
// hit whenever its gains pack (the GreedyRebuild fallback never does).
// It reports whether the gains pack and whether the longest selection
// ends in zero-gain picks.
func requireGreedyPrefixes(t *testing.T, g *coverage.Graph, label string) (packs, fill bool) {
	t.Helper()
	n := g.NumCandidates
	full, _ := GreedyWarm(g, n, nil)
	if len(full.Selected) != n || len(full.PrefixCost) != n+1 {
		t.Fatalf("%s: |U| = %d, but %d picks and %d prefix costs", label, n, len(full.Selected), len(full.PrefixCost))
	}
	var cs coverage.CostScratch
	for j := 0; j <= n; j++ {
		if c := g.CostOfWith(&cs, full.Selected[:j]); float64(full.PrefixCost[j]) != c {
			t.Fatalf("%s: PrefixCost[%d] = %d, CostOf(%v) = %v", label, j, full.PrefixCost[j], full.Selected[:j], c)
		}
	}
	_, packs = packBits(uint64(full.PrefixCost[0]), g.NumClasses())
	for j := 0; j <= n; j++ {
		warm, hit := GreedyWarm(g, j, full)
		if hit != packs {
			t.Fatalf("%s/j=%d: warm hit %v against the longest selection, gains pack %v", label, j, hit, packs)
		}
		for _, got := range []struct {
			name string
			res  *Result
		}{{"GreedyWarm", warm}, {"GreedyRebuild", GreedyRebuild(g, j)}} {
			res := got.res
			if !slices.Equal(res.Selected, full.Selected[:j]) ||
				!slices.Equal(res.PrefixCost, full.PrefixCost[:j+1]) ||
				res.Cost != float64(full.PrefixCost[j]) {
				t.Fatalf("%s/%s/j=%d: (%v, %v, %v), want the prefix (%v, %v, %d)", label, got.name, j,
					res.Selected, res.PrefixCost, res.Cost, full.Selected[:j], full.PrefixCost[:j+1], full.PrefixCost[j])
			}
		}
	}
	return packs, n > 0 && full.PrefixCost[n] == full.PrefixCost[n-1]
}

// prefixDAG builds a random rooted DAG of 1+n concepts, some with a
// second parent.
func prefixDAG(rng *rand.Rand, n int) *ontology.Ontology {
	var b ontology.Builder
	ids := []ontology.ConceptID{b.AddConcept("root")}
	for i := 0; i < n; i++ {
		c := b.Child(ids[rng.Intn(len(ids))], fmt.Sprintf("c%d", i))
		if len(ids) > 2 && rng.Intn(4) == 0 {
			b.AddEdge(ids[1+rng.Intn(len(ids)-1)], c)
		}
		ids = append(ids, c)
	}
	o, err := b.Build()
	if err != nil {
		panic(err)
	}
	return o
}

// prefixItem builds a random item over o whose sentences often repeat
// an earlier sentence's pairs or have none, so an index-frozen graph
// has classes of several members and large k ends in the zero-gain
// fill.
func prefixItem(rng *rand.Rand, o *ontology.Ontology, reviews int) *model.Item {
	item := &model.Item{ID: "prefix"}
	var seen [][]model.Pair
	for ri := 0; ri < reviews; ri++ {
		r := model.Review{ID: fmt.Sprintf("r%d", ri)}
		for si := 0; si < 1+rng.Intn(3); si++ {
			s := model.Sentence{Text: fmt.Sprintf("s%d/%d", ri, si)}
			switch {
			case len(seen) > 0 && rng.Intn(3) == 0:
				s.Pairs = seen[rng.Intn(len(seen))]
			case rng.Intn(5) > 0:
				for pi := 0; pi < 1+rng.Intn(3); pi++ {
					s.Pairs = append(s.Pairs, model.Pair{
						Concept:   ontology.ConceptID(1 + rng.Intn(o.Len()-1)),
						Sentiment: float64(rng.Intn(5)-2) / 2,
					})
				}
				seen = append(seen, s.Pairs)
			}
			r.Sentences = append(r.Sentences, s)
		}
		item.Reviews = append(item.Reviews, r)
	}
	return item
}

// largeGainsGraph builds 2–7 candidates under the root that each cover
// only their own target at distance 0, with weights and depths whose
// empty-summary cost lies in [2^62, 2^63): too wide to pack beside the
// candidate index bits, so GreedyWarm falls back to GreedyRebuild, as
// in TestGreedyExactLargeGains. Some weights tie.
func largeGainsGraph(rng *rand.Rand) *coverage.Graph {
	n := 2 + rng.Intn(6)
	var b ontology.Builder
	root := b.AddConcept("root")
	pairs := make([]model.Pair, n)
	for i := range pairs {
		pairs[i] = model.Pair{Concept: b.Child(root, fmt.Sprintf("c%d", i))}
	}
	o, err := b.Build()
	if err != nil {
		panic(err)
	}
	g := coverage.BuildPairs(model.Metric{Ont: o, Epsilon: 0.1}, pairs)
	each := 3 << 61 / n // n of these sum to 1.5·2^62
	for w := range g.RootDist {
		g.RootDist[w] = 1<<31 - 1 - int32(rng.Intn(3))
		g.Weight[w] = int32(each/int(g.RootDist[w])) - int32(rng.Intn(2))
	}
	return g
}

// prefixGraph is one graph of the prefix property: kind selects a
// batch pairs graph, a group graph, Build's and an index-frozen graph
// of a random-DAG item at each granularity, or a large-gains fallback
// graph; seed draws it.
func prefixGraph(seed int64, kind uint8) (*coverage.Graph, string) {
	rng := rand.New(rand.NewSource(seed))
	grans := []model.Granularity{model.GranularityPairs, model.GranularitySentences, model.GranularityReviews}
	switch k := int(kind % 9); {
	case k == 0:
		return randomGraph(rng, 12, 18), "batch"
	case k == 1:
		return randomGroupGraph(rng), "group"
	case k == 8:
		return largeGainsGraph(rng), "large-gains"
	default:
		o := prefixDAG(rng, 2+rng.Intn(10))
		m := model.Metric{Ont: o, Epsilon: []float64{0, 0.5, 1}[rng.Intn(3)]}
		item := prefixItem(rng, o, 1+rng.Intn(15))
		gran := grans[(k-2)%3]
		if k < 5 {
			return coverage.Build(m, item, gran), fmt.Sprintf("build/%v", gran)
		}
		// Merge in random chunks, so classes span merges.
		idx := coverage.NewIndex(m, gran)
		for done := 0; done < len(item.Reviews); {
			n := 1 + rng.Intn(len(item.Reviews)-done)
			idx.Merge(item.Reviews[done : done+n])
			done += n
		}
		return idx.Freeze(), fmt.Sprintf("index/%v", gran)
	}
}

// TestGreedyPrefixesOfLongestSelection is the property behind the
// store's stored greedy selection: on every kind of graph, the greedy
// at every j is the first j picks of the greedy at |U|, at the recorded
// prefix cost. The draws include packing fallbacks and index graphs
// whose classes have several members and whose longest selection ends
// in the zero-gain fill; the test counts both.
func TestGreedyPrefixesOfLongestSelection(t *testing.T) {
	fallbacks, fills := 0, 0
	for seed := int64(0); seed < 60; seed++ {
		for kind := uint8(0); kind < 9; kind++ {
			g, name := prefixGraph(seed, kind)
			packs, fill := requireGreedyPrefixes(t, g, fmt.Sprintf("seed%d/%s", seed, name))
			if !packs {
				fallbacks++
			}
			if fill && g.NumClasses() < g.NumCandidates {
				fills++
			}
		}
	}
	if fallbacks == 0 || fills == 0 {
		t.Fatalf("%d fallback graphs and %d graphs with shared classes and a zero-gain fill, want some of each", fallbacks, fills)
	}
}

// FuzzGreedyPrefix checks the prefix property on the graph that
// prefixGraph draws from (seed, kind).
func FuzzGreedyPrefix(f *testing.F) {
	for kind := uint8(0); kind < 9; kind++ {
		f.Add(int64(kind)+1, kind)
	}
	f.Fuzz(func(t *testing.T, seed int64, kind uint8) {
		g, name := prefixGraph(seed, kind)
		requireGreedyPrefixes(t, g, name)
	})
}
