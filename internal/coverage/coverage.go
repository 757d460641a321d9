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
// k-Reviews/Sentences Coverage (§4.5). An edge (u, w) with weight d
// means candidate u covers target w at Definition-1 distance d.
//
// Candidates with the same set of distinct pairs have the same edges,
// so a Graph stores one forward row per candidate class and maps every
// candidate to its class. Build gives each candidate its own class. The
// incremental Index (index.go) gives candidates with equal pair sets one
// class, so duplicate sentences and repeated pairs share a row. Every
// per-candidate accessor reads through the class, so readers see the
// same edges from either builder.
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
// The builder consumes the ontology's precomputed ancestor closure
// (ontology.Ancestors) instead of re-running a BFS per target pair,
// stores the concept buckets as one counting-sorted CSR block indexed
// by ConceptID instead of a map of append-lists, and scans each
// target's closure row once, counting-sorting the edges it finds into
// per-candidate forward rows. All transient build state is recycled
// through a sync.Pool for server workloads. The original walker-based
// and naive all-pairs builders are kept in reference_test.go as the
// ablation references; the equivalence tests assert that they produce
// identical graphs.
package coverage

import (
	"fmt"
	"sync"

	"osars/internal/model"
	"osars/internal/ontology"
)

// Graph is the immutable coverage graph. Its adjacency is one forward
// row per candidate class and the per-candidate transpose of those
// rows:
//
//   - forward:  class c → (pair w, distance), ascending w; candidate u
//     reads the row of its class
//   - backward: pair w → (candidate u, distance), ascending u
//
// It also holds the per-pair root fallback distance (the depth of the
// pair's concept), so C(F, P) is computable from the graph alone.
type Graph struct {
	Metric model.Metric
	// Pairs is W: the distinct pairs to cover, in order of first
	// occurrence in P.
	Pairs []model.Pair
	// RootDist[w] is d(r, Pairs[w].Concept): the cost of leaving pair
	// w to the implicit root.
	RootDist []int32
	// Weight[w] is how many pairs of P target w stands for, so
	// Σ Weight = |P|. All cost computations multiply by it.
	Weight []int32
	// NumCandidates is |U|.
	NumCandidates int

	// Candidate classes: class[u] is candidate u's class and first[c]
	// class c's smallest member. Classes are numbered in order of their
	// first members, so first ascends. Build uses one identity array for
	// both; an Index's Freeze aliases prefixes of the index's own.
	class []int32
	first []int32

	// Forward rows, one per class: every member of class c covers pairs
	// fwdPair[c] (ascending) at distances fwdDist[c]. Build windows them
	// out of two flat arrays; an Index's Freeze aliases the index's own
	// rows (index.go). Every row is capacity-capped, so nothing appended
	// to one can reach another row or storage a later merge extends.
	// numEdges is |E| = Σ_u Degree(u), counted per candidate.
	fwdPair  [][]int32
	fwdDist  [][]int32
	numEdges int

	// Backward CSR: the transpose of the forward rows, built once, on
	// the first backward read (buildBackward).
	bwdIdx  []int32 // len len(Pairs)+1
	bwdCand []int32
	bwdDist []int32
	bwdOnce sync.Once

	// initGains, when non-nil, is the warm-start seed maintained by the
	// incremental Index (index.go): initGains[c] = Σ_w Weight[w]·max(0,
	// RootDist[w]−d(c,w)), each class's initial greedy key. Batch
	// builders leave it nil.
	initGains []int64
}

// InitGains returns the per-class initial greedy gains maintained by
// the incremental index that froze this graph, or nil for graphs from
// the batch builders. The slice is shared and must be treated as
// read-only.
func (g *Graph) InitGains() []int64 { return g.initGains }

// NumClasses reports the number of candidate classes: |U| for a
// batch-built graph, the number of distinct candidate pair sets for an
// index-frozen one.
func (g *Graph) NumClasses() int { return len(g.first) }

// ClassFirst returns the smallest candidate index in class c. Classes
// are numbered in order of their first members.
func (g *Graph) ClassFirst(c int) int { return int(g.first[c]) }

// ClassRow returns the forward row every member of class c shares:
// the pair indices, ascending, and the matching distances. The slices
// alias the graph's storage and must not be modified.
func (g *Graph) ClassRow(c int) (pairs, dists []int32) {
	return g.fwdPair[c], g.fwdDist[c]
}

// Edge is one coverage relation reported by the iteration methods.
type Edge struct {
	Candidate int
	Pair      int
	Dist      int
}

// NumEdges reports |E|, counting each candidate's edges, shared row or
// not.
func (g *Graph) NumEdges() int { return g.numEdges }

// Covered calls fn for every pair covered by candidate u, in ascending
// pair order, with the Definition-1 distance. Iteration stops early if
// fn returns false.
func (g *Graph) Covered(u int, fn func(w int, dist int) bool) {
	pairs, dists := g.CoveredRow(u)
	for i := range pairs {
		if !fn(int(pairs[i]), int(dists[i])) {
			return
		}
	}
}

// Coverers calls fn for every candidate covering pair w, in ascending
// candidate order, with the Definition-1 distance. Iteration stops
// early if fn returns false.
func (g *Graph) Coverers(w int, fn func(u int, dist int) bool) {
	cands, dists := g.CoverersRow(w)
	for i := range cands {
		if !fn(int(cands[i]), int(dists[i])) {
			return
		}
	}
}

// Degree returns the number of pairs candidate u covers.
func (g *Graph) Degree(u int) int { return len(g.fwdPair[g.class[u]]) }

// CoveredRow returns the forward row of candidate u: the pair indices
// it covers, ascending, and the matching Definition-1 distances. The
// slices alias the graph's storage and must not be modified. This is
// the allocation- and closure-free counterpart of Covered for hot loops
// (the greedy key updates walk these rows directly).
func (g *Graph) CoveredRow(u int) (pairs, dists []int32) {
	return g.ClassRow(int(g.class[u]))
}

// CoverersRow returns the backward row of pair w: the candidate
// indices covering it, ascending, and the matching distances. The
// slices alias the graph's storage and must not be modified. The
// graph's first backward read builds the backward CSR.
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

// buildBackward transposes the candidates' forward rows into the
// backward CSR by a counting sort on the pair. Candidates are visited
// in ascending order, so every backward row lists its coverers by
// ascending candidate.
func (g *Graph) buildBackward() {
	idx := make([]int32, len(g.Pairs)+1)
	for _, c := range g.class {
		for _, w := range g.fwdPair[c] {
			idx[w+1]++
		}
	}
	for w := 1; w < len(idx); w++ {
		idx[w] += idx[w-1]
	}
	next := append([]int32(nil), idx[:len(g.Pairs)]...)
	cand := make([]int32, g.numEdges)
	dist := make([]int32, g.numEdges)
	for u, c := range g.class {
		dists := g.fwdDist[c]
		for i, w := range g.fwdPair[c] {
			pos := next[w]
			next[w]++
			cand[pos] = int32(u)
			dist[pos] = dists[i]
		}
	}
	g.bwdIdx, g.bwdCand, g.bwdDist = idx, cand, dist
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
	groups = make([][]model.Pair, 0, item.NumSentences())
	pairs = make([]model.Pair, 0, item.NumPairs())
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
// full pair multiset P, ready for BuildGroups. Each group is a
// capacity-capped window of P.
func ReviewGroups(item *model.Item) (groups [][]model.Pair, pairs []model.Pair) {
	pairs = item.Pairs()
	groups = make([][]model.Pair, len(item.Reviews))
	lo := 0
	for ri := range item.Reviews {
		hi := lo
		for _, s := range item.Reviews[ri].Sentences {
			hi += len(s.Pairs)
		}
		groups[ri] = pairs[lo:hi:hi]
		lo = hi
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
	cursor     []int32   // per-concept fill cursor
	edges      []edge    // every edge, in target order
	candCount  []int32   // edges counted per candidate (+1 shifted)
	stamp      []uint32  // per-candidate dedup stamps
	gen        uint32
}

// edge is one coverage edge of buildClosure's scratch list: candidate
// cand covers target pair at distance dist.
type edge struct{ cand, pair, dist int32 }

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

// identity returns [0, 1, …, n−1]: the class and first-member array of
// a graph whose every candidate is its own class.
func identity(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// buildClosure is the production §4.1 initialization. It differs from
// the walker reference (reference_test.go) in three ways, none
// observable in the output:
//
//  1. the per-target ancestor BFS is replaced by a read of the
//     ontology's precomputed closure row (same ancestor set, same BFS
//     order, same shortest up-distances);
//  2. the concept buckets are a counting-sorted CSR block indexed by
//     ConceptID instead of map[ConceptID][]bucketEntry;
//  3. the edges are appended to one pooled edge list instead of
//     per-target [][]int32 append lists, and a counting sort by
//     candidate moves them into two exact-size arrays that the forward
//     rows window. One list of (cand, pair, dist) records regrows a
//     third as often as three parallel lists would when a build misses
//     the pool.
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
	for _, g := range groups {
		for _, p := range g {
			bucketIdx[p.Concept+1]++
		}
	}
	for c := 1; c <= numConcepts; c++ {
		bucketIdx[c] += bucketIdx[c-1]
	}
	occ := int(bucketIdx[numConcepts])
	bucketCand := grow32(s.bucketCand, occ)
	bucketSent := growF64(s.bucketSent, occ)
	cursor := grow32(s.cursor, numConcepts)
	copy(cursor, bucketIdx[:numConcepts])
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

	// Second pass: for each target pair, scan its concept's closure row
	// and probe the buckets, appending each edge to the edge list and
	// counting it for its candidate. BFS order in the row gives
	// non-decreasing distances, so the first qualifying occurrence of a
	// candidate is its minimum edge weight; the stamp dedups.
	edges := s.edges[:0]
	candCount := grow32(s.candCount, numCand+1)
	for i := range candCount {
		candCount[i] = 0
	}
	for w := range pairs {
		target := &pairs[w]
		gen := s.nextGen()
		ids, dists := ont.Ancestors(target.Concept)
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
				edges = append(edges, edge{cand, int32(w), d})
				candCount[cand+1]++
			}
		}
	}

	ids := identity(numCand)
	g := &Graph{
		Metric:        m,
		Pairs:         pairs,
		RootDist:      make([]int32, len(pairs)),
		Weight:        weight,
		NumCandidates: numCand,
		class:         ids,
		first:         ids,
		fwdPair:       make([][]int32, numCand),
		fwdDist:       make([][]int32, numCand),
		numEdges:      len(edges),
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

	// Counting sort by candidate: each row is an empty window of two
	// exact-size arrays with room for exactly its edges. The edge list
	// is in target order, so every row comes out ascending.
	for u := 1; u <= numCand; u++ {
		candCount[u] += candCount[u-1]
	}
	flatPair := make([]int32, len(edges))
	flatDist := make([]int32, len(edges))
	for u := range g.fwdPair {
		lo, hi := candCount[u], candCount[u+1]
		g.fwdPair[u] = flatPair[lo:lo:hi]
		g.fwdDist[u] = flatDist[lo:lo:hi]
	}
	for _, e := range edges {
		g.fwdPair[e.cand] = append(g.fwdPair[e.cand], e.pair)
		g.fwdDist[e.cand] = append(g.fwdDist[e.cand], e.dist)
	}

	// Return the (possibly re-grown) scratch slices to the pool entry.
	s.bucketIdx = bucketIdx
	s.bucketCand = bucketCand
	s.bucketSent = bucketSent
	s.cursor = cursor
	s.edges = edges
	s.candCount = candCount
	return g
}
