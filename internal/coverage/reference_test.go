package coverage

import (
	"sort"
	"testing"

	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontology"
	"osars/internal/sentiment"
)

// bucketEntry is one candidate-pair occurrence filed under its concept
// during the first pass.
type bucketEntry struct {
	cand      int32
	sentiment float64
}

// builder accumulates edges grouped by target pair before the
// conversion to forward rows.
type builder struct {
	metric  model.Metric
	pairs   []model.Pair // the distinct targets
	weight  []int32      // nil → all ones
	numCand int
	// per-target edge lists
	targetCand [][]int32
	targetDist [][]int32
}

// BuildGroupsWalker is the pre-closure reference builder: per-target
// AncestorWalker BFS with map-backed buckets and per-target append
// lists. The equivalence tests and ablation 2 compare the closure-based
// builder against it.
func BuildGroupsWalker(m model.Metric, groups [][]model.Pair, pairs []model.Pair) *Graph {
	targets, weight := dedupTargets(pairs)
	b := builder{
		metric:     m,
		pairs:      targets,
		weight:     weight,
		numCand:    len(groups),
		targetCand: make([][]int32, len(targets)),
		targetDist: make([][]int32, len(targets)),
	}
	fillEdges(&b, groups)
	return b.finish()
}

// BuildPairsWalker is BuildPairs through the walker reference builder.
func BuildPairsWalker(m model.Metric, pairs []model.Pair) *Graph {
	return BuildGroupsWalker(m, pairGroups(pairs), pairs)
}

// fillEdges runs the two §4.1 passes, populating the per-target edge
// lists of the builder.
func fillEdges(b *builder, groups [][]model.Pair) {
	m := b.metric
	pairs := b.pairs

	// First pass (§4.1): bucket candidate pair occurrences by concept.
	buckets := make(map[ontology.ConceptID][]bucketEntry)
	for u, g := range groups {
		for _, p := range g {
			buckets[p.Concept] = append(buckets[p.Concept], bucketEntry{int32(u), p.Sentiment})
		}
	}

	// Second pass: for each target pair, walk ancestors of its concept
	// and probe buckets. BFS order gives non-decreasing distances, so
	// the first qualifying occurrence of a candidate yields its
	// minimum edge weight; a stamp array deduplicates candidates.
	root := m.Ont.Root()
	walker := ontology.NewAncestorWalker(m.Ont)
	stamp := make([]int32, len(groups))
	for i := range stamp {
		stamp[i] = -1
	}
	for w, target := range pairs {
		w32 := int32(w)
		walker.Walk(target.Concept, func(anc ontology.ConceptID, dist int) bool {
			isRoot := anc == root
			for _, e := range buckets[anc] {
				if stamp[e.cand] == w32 {
					continue
				}
				if !isRoot {
					diff := e.sentiment - target.Sentiment
					if diff < 0 {
						diff = -diff
					}
					if diff > m.Epsilon {
						continue
					}
				}
				stamp[e.cand] = w32
				b.targetCand[w] = append(b.targetCand[w], e.cand)
				b.targetDist[w] = append(b.targetDist[w], int32(dist))
			}
			return true
		})
	}
}

// finish appends the per-target edge lists, in target order, to the
// per-candidate forward rows; every candidate is its own class.
func (b *builder) finish() *Graph {
	ids := identity(b.numCand)
	g := &Graph{
		Metric:        b.metric,
		Pairs:         b.pairs,
		RootDist:      make([]int32, len(b.pairs)),
		Weight:        b.weight,
		NumCandidates: b.numCand,
		class:         ids,
		first:         ids,
		fwdPair:       make([][]int32, b.numCand),
		fwdDist:       make([][]int32, b.numCand),
	}
	if g.Weight == nil {
		g.Weight = make([]int32, len(b.pairs))
		for w := range g.Weight {
			g.Weight[w] = 1
		}
	}
	for w, p := range b.pairs {
		g.RootDist[w] = int32(b.metric.Ont.Depth(p.Concept))
	}
	for w := range b.targetCand {
		for i, u := range b.targetCand[w] {
			g.fwdPair[u] = append(g.fwdPair[u], int32(w))
			g.fwdDist[u] = append(g.fwdDist[u], b.targetDist[w][i])
		}
		g.numEdges += len(b.targetCand[w])
	}
	return g
}

// BuildPairsNaive is the ablation reference for the initialization
// phase: it computes all |P|² Definition-1 distances directly instead
// of using the bucket + ancestor-walk passes (DESIGN.md ablation 2).
func BuildPairsNaive(m model.Metric, pairs []model.Pair) *Graph {
	targets, weight := dedupTargets(pairs)
	b := builder{
		metric:     m,
		pairs:      targets,
		weight:     weight,
		numCand:    len(pairs),
		targetCand: make([][]int32, len(targets)),
		targetDist: make([][]int32, len(targets)),
	}
	for w, target := range targets {
		type edge struct{ cand, dist int32 }
		var edges []edge
		for u, cand := range pairs {
			if d := m.PairDistance(cand, target); d < model.Infinite {
				edges = append(edges, edge{int32(u), int32(d)})
			}
		}
		// Match the walker's non-decreasing-distance edge order so the
		// two builders produce comparable graphs.
		sort.SliceStable(edges, func(i, j int) bool { return edges[i].dist < edges[j].dist })
		for _, e := range edges {
			b.targetCand[w] = append(b.targetCand[w], e.cand)
			b.targetDist[w] = append(b.targetDist[w], e.dist)
		}
	}
	return b.finish()
}

// ablationItems returns the pair multisets of a copy of the root
// package's benchmark fixture: three annotated 60–80-review doctor
// items (DoctorConfig(1)), at ε 0.5.
func ablationItems() (model.Metric, [][]model.Pair) {
	cfg := dataset.DoctorConfig(1)
	cfg.NumItems = 3
	cfg.TotalReviews = 210
	cfg.MinReviews = 60
	cfg.MaxReviews = 80
	c := dataset.Generate(cfg)
	pipe := extract.NewPipeline(extract.NewMatcher(c.Ont), sentiment.Lexicon{})
	items := make([][]model.Pair, len(c.Items))
	for j, it := range c.Items {
		raws := make([]extract.RawReview, len(it.Reviews))
		for i, r := range it.Reviews {
			raws[i] = extract.RawReview{ID: r.ID, Text: r.Text, Rating: r.Rating}
		}
		items[j] = pipe.AnnotateItem(it.ID, it.Name, raws).Pairs()
	}
	return model.Metric{Ont: c.Ont, Epsilon: 0.5}, items
}

// ablationPairs returns the fixture's first item's pair multiset.
func ablationPairs() (model.Metric, []model.Pair) {
	m, items := ablationItems()
	return m, items[0]
}

// Ablation 2: §4.1 bucket+ancestor-walk initialization vs naive
// all-pairs distances.
func BenchmarkAblationInitBucketed(b *testing.B) {
	m, pairs := ablationPairs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildPairs(m, pairs)
	}
}

func BenchmarkAblationInitNaive(b *testing.B) {
	m, pairs := ablationPairs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildPairsNaive(m, pairs)
	}
}
