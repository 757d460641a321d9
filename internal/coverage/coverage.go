// Package coverage implements the initialization phase shared by all
// three summarization algorithms (paper §4.1), producing the
// edge-weighted bipartite coverage graph G = (U, W, E).
//
// W is the set of distinct (concept, sentiment) pairs of the multiset P
// to be covered, each weighted by how many pairs of P it stands for:
// identical pairs have identical coverers, distances and root
// distances, so one weighted target prices them all and every cost is
// the multiset's. U is the candidate set: the pairs themselves for
// k-Pairs Coverage, or the sentences / whole reviews for
// k-Reviews/Sentences Coverage (§4.5); candidates are never merged. An
// edge (u, w) with weight d means candidate u covers target w at
// Definition-1 distance d.
//
// The graph is built exactly as the paper describes: a first pass
// buckets candidate pairs by concept; a second pass iterates, for each
// target pair, the ancestors of its concept in the DAG and probes the
// buckets. (The paper walks ancestors by DFS; we use BFS order, which
// visits the same ancestor set but yields shortest up-distances
// directly — DFS would need explicit minimum tracking on multi-parent
// DAGs.) Because the average number of ancestors per concept is small,
// construction is near-linear in |P|.
//
// The production builder consumes the ontology's precomputed ancestor
// closure (ontology.Ancestors) instead of re-running a BFS per target
// pair, stores the concept buckets as one counting-sorted CSR block
// indexed by ConceptID instead of a map of append-lists, and fills the
// dual CSR adjacency in two exact-size passes with no per-target
// intermediate lists. All transient build state is recycled through a
// sync.Pool for server workloads. The original walker-based builder is
// kept (BuildGroupsWalker / BuildPairsWalker) as the ablation
// reference; the equivalence tests assert the two produce identical
// graphs.
package coverage

import (
	"fmt"
	"sort"
	"sync"

	"osars/internal/model"
	"osars/internal/ontology"
)

// Graph is the immutable coverage graph. Adjacency is stored in
// compressed sparse rows in both directions:
//
//   - forward:  candidate u → (pair w, distance)
//   - backward: pair w → (candidate u, distance)
//
// plus the per-pair root fallback distance (the depth of the pair's
// concept), so C(F, P) is computable from the graph alone.
type Graph struct {
	Metric model.Metric
	// Pairs is W: the distinct pairs to cover, in order of first
	// occurrence in P.
	Pairs []model.Pair
	// RootDist[w] is d(r, Pairs[w].Concept): the cost of leaving pair
	// w to the implicit root.
	RootDist []int32
	// Weight[w] is how many pairs of P target w stands for, so
	// Σ Weight = |P|. BuildPairsQuantized also merges pairs whose
	// sentiments snap to the same grid point. All cost computations
	// multiply by it.
	Weight []int32
	// NumCandidates is |U|.
	NumCandidates int

	fwdIdx  []int32 // len NumCandidates+1
	fwdPair []int32
	fwdDist []int32

	// Backward CSR. Graphs the incremental Index froze (index.go) start
	// without it and build it once, on first use (buildBackward), from
	// their candidate groups: candidate u's pairs are
	// occ[candStart[u]:candStart[u+1]], occ being every pair of P in
	// candidate order. Batch builders fill it directly and leave occ and
	// candStart nil.
	bwdIdx    []int32 // len len(Pairs)+1
	bwdCand   []int32
	bwdDist   []int32
	bwdOnce   sync.Once
	occ       []model.Pair
	candStart []int32

	// Row-backed forward adjacency, the alternative representation set
	// by the incremental Index's Freeze: one slice per candidate instead
	// of the flat CSR block. Freezing then costs O(|U|) slice-header
	// copies instead of an O(|E|) array rebuild — the rows alias the
	// index's append-only storage (capacity-capped, so later merges
	// reallocate rather than write through). Row contents and order are
	// identical to the CSR rows Build produces; the forward accessors
	// branch on rowBacked, so the two representations are
	// indistinguishable through the API.
	rowBacked  bool
	rowEdges   int
	rowFwdPair [][]int32 // per candidate: covered pair indices, ascending
	rowFwdDist [][]int32

	// initGains, when non-nil, is the warm-start seed maintained by the
	// incremental Index (index.go): initGains[u] = Σ_w max(0,
	// RootDist[w]−d(u,w)), each candidate's initial greedy key. Batch
	// builders leave it nil.
	initGains []int64
}

// InitGains returns the per-candidate initial greedy gains maintained
// by the incremental index that froze this graph, or nil for graphs
// from the batch builders. The slice is shared and must be treated as
// read-only.
func (g *Graph) InitGains() []int64 { return g.initGains }

// Edge is one coverage relation reported by the iteration methods.
type Edge struct {
	Candidate int
	Pair      int
	Dist      int
}

// NumEdges reports |E|.
func (g *Graph) NumEdges() int {
	if g.rowBacked {
		return g.rowEdges
	}
	return len(g.fwdPair)
}

// Covered calls fn for every pair covered by candidate u, with the
// Definition-1 distance. Iteration stops early if fn returns false.
func (g *Graph) Covered(u int, fn func(w int, dist int) bool) {
	pairs, dists := g.CoveredRow(u)
	for i := range pairs {
		if !fn(int(pairs[i]), int(dists[i])) {
			return
		}
	}
}

// Coverers calls fn for every candidate covering pair w, with the
// Definition-1 distance. Iteration stops early if fn returns false.
func (g *Graph) Coverers(w int, fn func(u int, dist int) bool) {
	cands, dists := g.CoverersRow(w)
	for i := range cands {
		if !fn(int(cands[i]), int(dists[i])) {
			return
		}
	}
}

// Degree returns the number of pairs candidate u covers.
func (g *Graph) Degree(u int) int {
	if g.rowBacked {
		return len(g.rowFwdPair[u])
	}
	return int(g.fwdIdx[u+1] - g.fwdIdx[u])
}

// CoveredRow returns the forward row of candidate u: the pair indices
// it covers and the matching Definition-1 distances. The slices alias
// the graph's storage and must not be modified. This is the
// allocation- and closure-free counterpart of Covered for hot loops
// (the greedy key updates walk these rows directly).
func (g *Graph) CoveredRow(u int) (pairs, dists []int32) {
	if g.rowBacked {
		return g.rowFwdPair[u], g.rowFwdDist[u]
	}
	lo, hi := g.fwdIdx[u], g.fwdIdx[u+1]
	return g.fwdPair[lo:hi], g.fwdDist[lo:hi]
}

// CoverersRow returns the backward row of pair w: the candidate
// indices covering it and the matching distances. The slices alias the
// graph's storage and must not be modified. On a graph an Index froze,
// the first backward read builds the backward CSR.
func (g *Graph) CoverersRow(w int) (cands, dists []int32) {
	idx, cand, dist := g.backward()
	lo, hi := idx[w], idx[w+1]
	return cand[lo:hi], dist[lo:hi]
}

// backward returns the backward CSR, building it first if need be.
func (g *Graph) backward() (idx, cand, dist []int32) {
	g.bwdOnce.Do(g.buildBackward)
	return g.bwdIdx, g.bwdCand, g.bwdDist
}

// buildBackward fills the backward CSR of a graph an Index froze, which
// carries forward rows only. It runs the batch builder over the
// graph's own candidate groups, so the rows and their order are
// Build's by construction. Batch-built graphs already have the CSR.
func (g *Graph) buildBackward() {
	if g.bwdIdx != nil {
		return
	}
	groups := make([][]model.Pair, g.NumCandidates)
	for u := range groups {
		groups[u] = g.occ[g.candStart[u]:g.candStart[u+1]]
	}
	b := buildClosure(g.Metric, groups, g.Pairs, g.Weight)
	g.bwdIdx, g.bwdCand, g.bwdDist = b.bwdIdx, b.bwdCand, b.bwdDist
}

// CostScratch holds reusable state for CostOfWith so that repeated
// cost evaluations (randomized-rounding trials, local-search guards,
// per-request server evaluation) allocate nothing after the first
// call. The zero value is ready; a scratch may be reused across graphs
// of different sizes but is NOT safe for concurrent use.
type CostScratch struct {
	stamp []uint32
	gen   uint32
}

// mark stamps the selected candidates, growing the stamp array to
// hold n candidates, and returns the current generation.
func (s *CostScratch) mark(n int, selected []int) uint32 {
	if cap(s.stamp) < n {
		s.stamp = make([]uint32, n)
	}
	s.stamp = s.stamp[:n]
	s.gen++
	if s.gen == 0 { // wrapped: clear stale stamps
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
	for _, u := range selected {
		s.stamp[u] = s.gen
	}
	return s.gen
}

// CostOf evaluates C(F, P) for a set of selected candidates using only
// the precomputed graph: each pair is charged the minimum distance over
// selected coverers, with the root as fallback.
func (g *Graph) CostOf(selected []int) float64 {
	var s CostScratch
	return g.CostOfWith(&s, selected)
}

// CostOfWith is CostOf with caller-owned scratch, for evaluation loops
// that must not allocate per call.
func (g *Graph) CostOfWith(s *CostScratch, selected []int) float64 {
	gen := s.mark(g.NumCandidates, selected)
	stamp := s.stamp
	idx, cand, dist := g.backward()
	total := 0
	for w := range g.Pairs {
		best := g.RootDist[w]
		for i := idx[w]; i < idx[w+1]; i++ {
			if d := dist[i]; d < best && stamp[cand[i]] == gen {
				best = d
			}
		}
		total += int(best) * int(g.Weight[w])
	}
	return float64(total)
}

// EmptyCost returns C(∅, P) = Σ_w Weight[w]·RootDist[w], the cost of
// the empty summary where the root covers everything.
func (g *Graph) EmptyCost() float64 {
	total := 0
	for w, d := range g.RootDist {
		total += int(d) * int(g.Weight[w])
	}
	return float64(total)
}

// String describes the graph size.
func (g *Graph) String() string {
	return fmt.Sprintf("CoverageGraph(|U|=%d, |W|=%d, |E|=%d)", g.NumCandidates, len(g.Pairs), g.NumEdges())
}

// bucketEntry is one candidate-pair occurrence filed under its concept
// during the first pass.
type bucketEntry struct {
	cand      int32
	sentiment float64
}

// builder accumulates edges grouped by target pair before the CSR
// conversion.
type builder struct {
	metric  model.Metric
	pairs   []model.Pair // the distinct targets
	weight  []int32      // nil → all ones
	numCand int
	// per-target edge lists
	targetCand [][]int32
	targetDist [][]int32
}

// BuildPairs constructs the coverage graph for k-Pairs Coverage: U = P,
// candidate i is the pair P[i] itself, and W is P's distinct pairs.
func BuildPairs(m model.Metric, pairs []model.Pair) *Graph {
	return BuildGroups(m, pairGroups(pairs), pairs)
}

// pairGroups makes each pair its own candidate group.
func pairGroups(pairs []model.Pair) [][]model.Pair {
	groups := make([][]model.Pair, len(pairs))
	for i := range pairs {
		groups[i] = pairs[i : i+1]
	}
	return groups
}

// BuildGroups constructs the coverage graph for k-Reviews/Sentences
// Coverage (§4.5): candidate u is the pair-set groups[u] (one sentence
// or one whole review), and W is the distinct pairs of the given
// multiset (normally the concatenation of all groups). The edge weight
// from a group to a pair is the minimum Definition-1 distance over the
// group's pairs.
func BuildGroups(m model.Metric, groups [][]model.Pair, pairs []model.Pair) *Graph {
	targets, weight := dedupTargets(pairs)
	return buildClosure(m, groups, targets, weight)
}

// targetKey identifies a target: pairs with equal keys are covered by
// the same candidates at the same distances.
type targetKey struct {
	concept   ontology.ConceptID
	sentiment float64
}

// dedupTargets returns the distinct pairs of the multiset in order of
// first occurrence, each with the number of pairs it stands for. An
// empty multiset gives nil targets.
func dedupTargets(pairs []model.Pair) (targets []model.Pair, weight []int32) {
	if len(pairs) == 0 {
		return nil, nil
	}
	at := make(map[targetKey]int32, len(pairs))
	targets = make([]model.Pair, 0, len(pairs))
	weight = make([]int32, 0, len(pairs))
	for _, p := range pairs {
		k := targetKey{p.Concept, p.Sentiment}
		if w, ok := at[k]; ok {
			weight[w]++
			continue
		}
		at[k] = int32(len(targets))
		targets = append(targets, p)
		weight = append(weight, 1)
	}
	return targets, weight
}

// SentenceGroups flattens an item into per-sentence pair groups plus
// the full pair multiset P, ready for BuildGroups. Sentences with no
// extracted pairs are still included (they can be selected but cover
// nothing), preserving candidate indices aligned with sentence order.
func SentenceGroups(item *model.Item) (groups [][]model.Pair, pairs []model.Pair) {
	for ri := range item.Reviews {
		for si := range item.Reviews[ri].Sentences {
			s := &item.Reviews[ri].Sentences[si]
			groups = append(groups, s.Pairs)
			pairs = append(pairs, s.Pairs...)
		}
	}
	return groups, pairs
}

// ReviewGroups flattens an item into per-review pair groups plus the
// full pair multiset P, ready for BuildGroups.
func ReviewGroups(item *model.Item) (groups [][]model.Pair, pairs []model.Pair) {
	for ri := range item.Reviews {
		g := item.Reviews[ri].Pairs()
		groups = append(groups, g)
		pairs = append(pairs, g...)
	}
	return groups, pairs
}

// Build constructs the coverage graph for an item at the requested
// granularity.
func Build(m model.Metric, item *model.Item, g model.Granularity) *Graph {
	switch g {
	case model.GranularityPairs:
		return BuildPairs(m, item.Pairs())
	case model.GranularitySentences:
		groups, pairs := SentenceGroups(item)
		return BuildGroups(m, groups, pairs)
	case model.GranularityReviews:
		groups, pairs := ReviewGroups(item)
		return BuildGroups(m, groups, pairs)
	default:
		panic(fmt.Sprintf("coverage: unknown granularity %v", g))
	}
}

// buildScratch is the pooled transient state of buildClosure. Every
// slice grows monotonically and is reused across builds, so a server
// solving cache misses in a loop stops allocating build scratch after
// warm-up.
type buildScratch struct {
	bucketIdx  []int32   // len numConcepts+1: bucket CSR offsets
	bucketCand []int32   // candidate of each occurrence, grouped by concept
	bucketSent []float64 // sentiment of each occurrence
	cursor     []int32   // per-concept fill cursor / per-candidate next
	perW       []int32   // edges counted per target pair
	candCount  []int32   // edges counted per candidate (+1 shifted)
	stamp      []uint32  // per-candidate dedup stamps
	gen        uint32
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

// grow32 resizes buf to n, reusing capacity.
func grow32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// nextGen advances the scratch's dedup generation, clearing stamps on
// wrap-around, and returns the fresh generation.
func (s *buildScratch) nextGen() uint32 {
	s.gen++
	if s.gen == 0 {
		for i := range s.stamp {
			s.stamp[i] = 0
		}
		s.gen = 1
	}
	return s.gen
}

// buildClosure is the production §4.1 initialization. It differs from
// the walker reference in three ways, none observable in the output:
//
//  1. the per-target ancestor BFS is replaced by a read of the
//     ontology's precomputed closure row (same ancestor set, same BFS
//     order, same shortest up-distances);
//  2. the concept buckets are a counting-sorted CSR block indexed by
//     ConceptID instead of map[ConceptID][]bucketEntry;
//  3. edges are counted in one pass and written straight into the
//     exact-size dual CSR in a second, instead of accumulating
//     per-target [][]int32 append lists that finish() re-copies.
//
// weight == nil means all multiplicities are 1.
func buildClosure(m model.Metric, groups [][]model.Pair, pairs []model.Pair, weight []int32) *Graph {
	ont := m.Ont
	numConcepts := ont.Len()
	numCand := len(groups)
	root := ont.Root()
	eps := m.Epsilon

	s := buildPool.Get().(*buildScratch)
	defer buildPool.Put(s)

	// First pass (§4.1): bucket candidate pair occurrences by concept —
	// counting sort into one CSR block.
	bucketIdx := grow32(s.bucketIdx, numConcepts+1)
	for i := range bucketIdx {
		bucketIdx[i] = 0
	}
	occ := 0
	for _, g := range groups {
		for _, p := range g {
			bucketIdx[p.Concept+1]++
			occ++
		}
	}
	for c := 1; c <= numConcepts; c++ {
		bucketIdx[c] += bucketIdx[c-1]
	}
	bucketCand := grow32(s.bucketCand, occ)
	bucketSent := growF64(s.bucketSent, occ)
	cursor := grow32(s.cursor, numConcepts)
	if numCand > numConcepts {
		cursor = grow32(cursor, numCand) // shared with the fwd fill below
	}
	copy(cursor[:numConcepts], bucketIdx[:numConcepts])
	for u, g := range groups {
		for _, p := range g {
			pos := cursor[p.Concept]
			cursor[p.Concept]++
			bucketCand[pos] = int32(u)
			bucketSent[pos] = p.Sentiment
		}
	}

	// Grow the dedup stamps once; generations handle logical clearing.
	if cap(s.stamp) < numCand {
		s.stamp = make([]uint32, numCand)
	}
	stamp := s.stamp[:numCand]

	// Second pass, count stage: for each target pair, scan its
	// concept's closure row and probe the buckets, counting edges per
	// target and per candidate. BFS order in the row gives
	// non-decreasing distances, so the first qualifying occurrence of a
	// candidate is its minimum edge weight; the stamp dedups.
	perW := grow32(s.perW, len(pairs))
	candCount := grow32(s.candCount, numCand+1)
	for i := range candCount {
		candCount[i] = 0
	}
	for w := range pairs {
		target := &pairs[w]
		gen := s.nextGen()
		ids, _ := ont.Ancestors(target.Concept)
		n := int32(0)
		for _, anc := range ids {
			isRoot := anc == root
			for bi := bucketIdx[anc]; bi < bucketIdx[anc+1]; bi++ {
				cand := bucketCand[bi]
				if stamp[cand] == gen {
					continue
				}
				if !isRoot {
					diff := bucketSent[bi] - target.Sentiment
					if diff < 0 {
						diff = -diff
					}
					if diff > eps {
						continue
					}
				}
				stamp[cand] = gen
				candCount[cand+1]++
				n++
			}
		}
		perW[w] = n
	}

	g := &Graph{
		Metric:        m,
		Pairs:         pairs,
		RootDist:      make([]int32, len(pairs)),
		Weight:        weight,
		NumCandidates: numCand,
	}
	if g.Weight == nil {
		g.Weight = make([]int32, len(pairs))
		for w := range g.Weight {
			g.Weight[w] = 1
		}
	}
	for w := range pairs {
		g.RootDist[w] = int32(ont.Depth(pairs[w].Concept))
	}

	// Exact-size dual CSR, offsets from the counts.
	g.bwdIdx = make([]int32, len(pairs)+1)
	for w := range pairs {
		g.bwdIdx[w+1] = g.bwdIdx[w] + perW[w]
	}
	total := int(g.bwdIdx[len(pairs)])
	g.bwdCand = make([]int32, total)
	g.bwdDist = make([]int32, total)
	for u := 1; u <= numCand; u++ {
		candCount[u] += candCount[u-1]
	}
	g.fwdIdx = candCount[:numCand+1]
	// fwdIdx is retained by the Graph, so it must leave the pool.
	g.fwdIdx = append([]int32(nil), g.fwdIdx...)
	g.fwdPair = make([]int32, total)
	g.fwdDist = make([]int32, total)

	// Second pass, fill stage: identical iteration (so identical dedup
	// decisions and edge order), writing both CSR directions directly.
	next := grow32(cursor, numCand) // reuse: per-candidate fwd cursor
	copy(next, g.fwdIdx[:numCand])
	bp := int32(0)
	for w := range pairs {
		target := &pairs[w]
		gen := s.nextGen()
		ids, dists := ont.Ancestors(target.Concept)
		w32 := int32(w)
		for ai, anc := range ids {
			isRoot := anc == root
			d := dists[ai]
			for bi := bucketIdx[anc]; bi < bucketIdx[anc+1]; bi++ {
				cand := bucketCand[bi]
				if stamp[cand] == gen {
					continue
				}
				if !isRoot {
					diff := bucketSent[bi] - target.Sentiment
					if diff < 0 {
						diff = -diff
					}
					if diff > eps {
						continue
					}
				}
				stamp[cand] = gen
				g.bwdCand[bp] = cand
				g.bwdDist[bp] = d
				bp++
				pos := next[cand]
				next[cand]++
				g.fwdPair[pos] = w32
				g.fwdDist[pos] = d
			}
		}
	}

	// Return the (possibly re-grown) scratch slices to the pool entry.
	s.bucketIdx = bucketIdx
	s.bucketCand = bucketCand
	s.bucketSent = bucketSent
	s.cursor = next
	s.perW = perW
	s.candCount = candCount[:0]
	return g
}

// BuildGroupsWalker is the pre-closure reference builder: per-target
// AncestorWalker BFS with map-backed buckets and per-target append
// lists. Kept for the ablation benchmark and the equivalence tests;
// production code paths use the closure-based builder.
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

// finish converts the per-target edge lists into the dual CSR layout.
func (b *builder) finish() *Graph {
	g := &Graph{
		Metric:        b.metric,
		Pairs:         b.pairs,
		RootDist:      make([]int32, len(b.pairs)),
		Weight:        b.weight,
		NumCandidates: b.numCand,
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

	total := 0
	for w := range b.targetCand {
		total += len(b.targetCand[w])
	}

	// Backward CSR: straight copy of the per-target lists.
	g.bwdIdx = make([]int32, len(b.pairs)+1)
	g.bwdCand = make([]int32, 0, total)
	g.bwdDist = make([]int32, 0, total)
	for w := range b.targetCand {
		g.bwdIdx[w] = int32(len(g.bwdCand))
		g.bwdCand = append(g.bwdCand, b.targetCand[w]...)
		g.bwdDist = append(g.bwdDist, b.targetDist[w]...)
	}
	g.bwdIdx[len(b.pairs)] = int32(len(g.bwdCand))

	// Forward CSR: counting sort of the same edges by candidate.
	counts := make([]int32, b.numCand+1)
	for w := range b.targetCand {
		for _, u := range b.targetCand[w] {
			counts[u+1]++
		}
	}
	for u := 1; u <= b.numCand; u++ {
		counts[u] += counts[u-1]
	}
	g.fwdIdx = counts
	g.fwdPair = make([]int32, total)
	g.fwdDist = make([]int32, total)
	next := make([]int32, b.numCand)
	for w := range b.targetCand {
		for i, u := range b.targetCand[w] {
			pos := g.fwdIdx[u] + next[u]
			next[u]++
			g.fwdPair[pos] = int32(w)
			g.fwdDist[pos] = b.targetDist[w][i]
		}
	}
	return g
}

// BuildPairsNaive is the ablation reference for the initialization
// phase: it computes all |P|² Definition-1 distances directly instead
// of using the bucket + ancestor-walk passes. Used only by tests and
// the ablation benchmark (DESIGN.md ablation 2).
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
