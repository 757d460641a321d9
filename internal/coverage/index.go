// Incremental coverage index: the §4.1 initialization kept in
// appendable form so an append-heavy corpus pays O(delta) per new
// review instead of a full rebuild per summary.
//
// Build (coverage.go) is a batch algorithm: pass 1 counting-sorts every
// candidate-pair occurrence into per-concept buckets, pass 2 scans each
// target pair's ancestor closure over those buckets. Both passes have a
// property the Index exploits: appending reviews only ever EXTENDS the
// state the passes derive —
//
//   - occurrences of new candidates land at the TAIL of their concept
//     buckets (bucket order is the global candidate scan order, and new
//     candidates scan after all old ones);
//   - existing candidates never gain occurrences (a review's pair set
//     is immutable), so the dedup/emission decisions of every old edge
//     are unchanged;
//   - an old target therefore gains exactly the edges a scan of the
//     new bucket tails finds, all of them from new candidates.
//
// Merge applies exactly that: it appends the delta's occurrences,
// re-probes ONLY the dirty bucket tails for the affected old targets
// (found through the ontology's descendant sets, not a corpus scan),
// and runs the normal closure scan for the delta's own targets. Each
// edge found goes straight into its candidate's forward row, the only
// adjacency the greedy reads. Freeze hands out a Graph whose forward
// rows alias the index's own storage — O(|U|) slice headers, not an
// O(|E|) CSR rebuild — and whose backward CSR the batch builder fills
// only if a reader asks for it (Graph.buildBackward). The equivalence
// tests fuzz row identity against Build from scratch in both
// directions.
//
// The index also maintains each candidate's initial greedy gain
// Σ_w max(0, RootDist[w] − d(u,w)) as it merges, so a frozen graph
// carries the warm-start seed (Graph.InitGains) and GreedyWarm can
// skip the O(|E|) key-initialization scan.
package coverage

import (
	"sort"
	"sync"

	"osars/internal/model"
	"osars/internal/ontology"
)

// Index is the appendable form of the coverage graph for one item at
// one granularity under one metric (ontology + ε). All methods are
// safe for concurrent use; Merge serializes against Freeze, and a
// frozen Graph only aliases append-only arrays, so graphs handed out
// earlier never observe later merges.
type Index struct {
	mu     sync.Mutex
	metric model.Metric
	gran   model.Granularity

	numReviews int // reviews merged so far
	numCand    int // |U|

	// Append-only parallels of the Graph's W arrays. Frozen graphs
	// alias prefixes of these; merges only ever append past them.
	pairs    []model.Pair
	rootDist []int32
	ones     []int32 // all-ones Weight backing
	// candStart[u] is where candidate u's group starts in pairs: its
	// pairs are pairs[candStart[u]:candStart[u+1]] (len numCand+1).
	candStart []int32

	// slot[c] is 1 + the position of concept c's state in concepts, or
	// 0 when the item does not mention c. It is the only per-ontology-
	// concept array; everything else grows with the item.
	slot     []int32
	concepts []conceptState

	// Per-candidate forward rows (candidate → covered targets,
	// ascending target order — the same order as buildClosure's forward
	// CSR). Old candidates only ever gain edges to NEW targets (their
	// occurrences are immutable, so no new edge to an old target can
	// involve them), and new targets are scanned in ascending order, so
	// in-place tail appends preserve the sort. New candidates
	// additionally receive old targets out of order during the patch
	// phase; mergeLocked sorts that prefix once at the end.
	fwdPair  [][]int32
	fwdDist  [][]int32
	numEdges int

	// gain[u] = Σ_w max(0, rootDist[w] − d(u,w)): the candidate's
	// initial greedy key, maintained edge by edge.
	gain []int64

	// Dedup scratch (candidate stamps per target scan, target stamps
	// per merge) and the concepts whose buckets this merge extended.
	stamp  []uint32
	gen    uint32
	tStamp []uint32
	tGen   uint32
	dirty  []ontology.ConceptID

	// Memoized Freeze: valid while no merge has run since.
	frozen *Graph
}

// conceptState is the index's state for one concept the item mentions.
type conceptState struct {
	// Occurrence bucket in global candidate scan order (pass 1 of
	// §4.1, kept live instead of rebuilt per solve).
	cand []int32
	sent []float64
	// targets lists the pair indices whose concept this is, ascending,
	// so a merge finds the old targets under a dirty concept through
	// its descendants instead of scanning the whole multiset.
	targets []int32
	// tail is the bucket length before the current merge, so the
	// merge's new occurrences are cand[tail:]; between merges it equals
	// len(cand).
	tail int32
}

// NewIndex returns an empty index for the metric and granularity. The
// ontology is pinned: after a hot-swap the store discards the index
// (annotations change too) rather than migrating it.
func NewIndex(m model.Metric, g model.Granularity) *Index {
	return &Index{
		metric:    m,
		gran:      g,
		candStart: []int32{0},
		slot:      make([]int32, m.Ont.Len()),
	}
}

// NumReviews reports how many reviews have been merged.
func (x *Index) NumReviews() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.numReviews
}

// Merge appends new reviews to the index in O(delta +
// affected-old-targets) time. Reviews must be the continuation of the
// sequence merged so far (the store's copy-on-write items guarantee
// appends preserve the prefix).
func (x *Index) Merge(reviews []model.Review) {
	if len(reviews) == 0 {
		return
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	x.mergeLocked(reviews)
}

// Advance merges the suffix of item's reviews the index has not seen
// yet. A stale snapshot (item shorter than the index) is a no-op, so
// concurrent advancers against different snapshots are safe.
func (x *Index) Advance(item *model.Item) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.numReviews >= len(item.Reviews) {
		return
	}
	x.mergeLocked(item.Reviews[x.numReviews:])
}

// Freeze converts the index into an immutable Graph whose rows are
// identical to Build from scratch over the merged corpus. The copy is
// O(|U|) slice headers (the rows themselves are aliased, see
// freezeLocked) and the result is memoized until the next merge.
func (x *Index) Freeze() *Graph {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.freezeLocked()
}

// Graph returns the frozen graph for the given item snapshot, catching
// the index up first if the snapshot has reviews the index has not
// merged (recovered entries, replicas applying streamed ops). It
// returns nil when the index has already merged PAST the snapshot —
// the caller's view is older than the index and only a from-scratch
// build can serve it.
func (x *Index) Graph(item *model.Item) *Graph {
	x.mu.Lock()
	defer x.mu.Unlock()
	n := len(item.Reviews)
	if x.numReviews > n {
		return nil
	}
	if x.numReviews < n {
		x.mergeLocked(item.Reviews[x.numReviews:])
	}
	return x.freezeLocked()
}

// nextGenLocked advances the candidate-stamp generation (wrap-safe).
func (x *Index) nextGenLocked() uint32 {
	x.gen++
	if x.gen == 0 {
		for i := range x.stamp {
			x.stamp[i] = 0
		}
		x.gen = 1
	}
	return x.gen
}

// nextTargetGenLocked advances the target-stamp generation.
func (x *Index) nextTargetGenLocked() uint32 {
	x.tGen++
	if x.tGen == 0 {
		for i := range x.tStamp {
			x.tStamp[i] = 0
		}
		x.tGen = 1
	}
	return x.tGen
}

// addOccurrenceLocked files one occurrence of pair p in the open
// candidate (index numCand): the W-side append-only arrays and the
// concept's bucket tail, targets and dirty mark.
func (x *Index) addOccurrenceLocked(p model.Pair) {
	w := len(x.pairs)
	x.pairs = append(x.pairs, p)
	x.rootDist = append(x.rootDist, int32(x.metric.Ont.Depth(p.Concept)))
	x.ones = append(x.ones, 1)
	s := x.slot[p.Concept]
	if s == 0 {
		x.concepts = append(x.concepts, conceptState{})
		s = int32(len(x.concepts))
		x.slot[p.Concept] = s
	}
	b := &x.concepts[s-1]
	if int(b.tail) == len(b.cand) {
		x.dirty = append(x.dirty, p.Concept)
	}
	b.cand = append(b.cand, int32(x.numCand))
	b.sent = append(b.sent, p.Sentiment)
	b.targets = append(b.targets, int32(w))
}

// closeCandidateLocked ends the open candidate's group at the current
// end of pairs and gives it an empty forward row.
func (x *Index) closeCandidateLocked() {
	x.numCand++
	x.candStart = append(x.candStart, int32(len(x.pairs)))
	x.fwdPair = append(x.fwdPair, nil)
	x.fwdDist = append(x.fwdDist, nil)
	x.gain = append(x.gain, 0)
}

// mergeLocked is the three-phase merge: (A) append the delta's
// candidates and occurrences, (B) probe the dirty bucket tails for the
// affected OLD targets, (C) run the full closure scan for the delta's
// NEW targets. Phase order mirrors the batch builder's two passes: all
// occurrences land before any target scans.
func (x *Index) mergeLocked(reviews []model.Review) {
	ont := x.metric.Ont
	oldPairs := len(x.pairs)
	oldCand := x.numCand

	// Phase A: extend U and the buckets in the same scan order the
	// batch builder's counting sort produces (candidates ascending,
	// pairs within a group in order). A candidate is one pair, one
	// sentence or one review.
	for ri := range reviews {
		for si := range reviews[ri].Sentences {
			for _, p := range reviews[ri].Sentences[si].Pairs {
				x.addOccurrenceLocked(p)
				if x.gran == model.GranularityPairs {
					x.closeCandidateLocked()
				}
			}
			if x.gran == model.GranularitySentences {
				x.closeCandidateLocked()
			}
		}
		if x.gran == model.GranularityReviews {
			x.closeCandidateLocked()
		}
	}
	if cap(x.stamp) < x.numCand {
		grown := make([]uint32, x.numCand)
		copy(grown, x.stamp)
		x.stamp = grown
	}
	x.stamp = x.stamp[:x.numCand]
	if cap(x.tStamp) < len(x.pairs) {
		grown := make([]uint32, len(x.pairs))
		copy(grown, x.tStamp)
		x.tStamp = grown
	}
	x.tStamp = x.tStamp[:len(x.pairs)]

	// Phase B: every old target whose concept descends from a dirty
	// concept may gain edges from that bucket's tail. Descendant sets
	// bound the work by the delta's concepts, not the corpus size.
	tgen := x.nextTargetGenLocked()
	for _, c := range x.dirty {
		for _, dc := range ont.Descendants(c) {
			s := x.slot[dc]
			if s == 0 {
				continue
			}
			for _, t := range x.concepts[s-1].targets {
				if int(t) >= oldPairs {
					break
				}
				if x.tStamp[t] != tgen {
					x.tStamp[t] = tgen
					x.scanTargetLocked(int(t), true)
				}
			}
		}
	}

	// Phase C: the delta's own targets scan the now-complete buckets
	// exactly like the batch builder's second pass.
	for w := oldPairs; w < len(x.pairs); w++ {
		x.scanTargetLocked(w, false)
	}

	// New candidates received their OLD-target edges during phase B in
	// dirty-concept order, not target order; restore the ascending-target
	// invariant by sorting that prefix (everything < oldPairs — phase C's
	// new targets arrived after it, already ascending). Old candidates
	// only gained ascending new targets and need nothing.
	for u := oldCand; u < x.numCand; u++ {
		row := x.fwdPair[u]
		split := 0
		for split < len(row) && row[split] < int32(oldPairs) {
			split++
		}
		if split > 1 {
			sort.Sort(fwdRowSorter{p: row[:split], d: x.fwdDist[u][:split]})
		}
	}

	for _, c := range x.dirty {
		b := &x.concepts[x.slot[c]-1]
		b.tail = int32(len(b.cand))
	}
	x.dirty = x.dirty[:0]
	x.numReviews += len(reviews)
	x.frozen = nil
}

// fwdRowSorter co-sorts one forward row prefix by target index.
type fwdRowSorter struct {
	p, d []int32
}

func (s fwdRowSorter) Len() int           { return len(s.p) }
func (s fwdRowSorter) Less(i, j int) bool { return s.p[i] < s.p[j] }
func (s fwdRowSorter) Swap(i, j int) {
	s.p[i], s.p[j] = s.p[j], s.p[i]
	s.d[i], s.d[j] = s.d[j], s.d[i]
}

// scanTargetLocked runs the batch builder's per-target closure scan for
// pair w and appends each edge it finds to the candidate's forward row
// and gain. tailsOnly probes only this merge's bucket tails, which is
// all an OLD target can gain: old candidates never appear in a tail, so
// the old edges' dedup decisions stand, and new candidates dedup among
// themselves in the same ancestor-major order the batch scan uses.
func (x *Index) scanTargetLocked(w int, tailsOnly bool) {
	ont := x.metric.Ont
	root := ont.Root()
	eps := x.metric.Epsilon
	target := &x.pairs[w]
	rd := x.rootDist[w]
	gen := x.nextGenLocked()
	ids, dists := ont.Ancestors(target.Concept)
	for ai, anc := range ids {
		s := x.slot[anc]
		if s == 0 {
			continue
		}
		b := &x.concepts[s-1]
		bi := 0
		if tailsOnly {
			bi = int(b.tail)
		}
		isRoot := anc == root
		d := dists[ai]
		for ; bi < len(b.cand); bi++ {
			cand := b.cand[bi]
			if x.stamp[cand] == gen {
				continue
			}
			if !isRoot {
				diff := b.sent[bi] - target.Sentiment
				if diff < 0 {
					diff = -diff
				}
				if diff > eps {
					continue
				}
			}
			x.stamp[cand] = gen
			x.fwdPair[cand] = append(x.fwdPair[cand], int32(w))
			x.fwdDist[cand] = append(x.fwdDist[cand], d)
			if diff := rd - d; diff > 0 {
				x.gain[cand] += int64(diff)
			}
			x.numEdges++
		}
	}
}

// freezeLocked materializes a row-backed Graph in O(|U|): the forward
// rows are slice headers over the index's storage, and the backward
// CSR is left to Graph.buildBackward, on first use. Aliasing is safe
// because merges only ever append: the W-side arrays and candStart are
// handed out as capacity-capped prefixes, and so is each forward row —
// an in-cap append by a later merge lands beyond the frozen length, an
// over-cap append reallocates.
//
// Forward row contents and order match buildClosure's CSR exactly
// (ascending target), which the equivalence tests fuzz via the
// accessor-level row comparison.
func (x *Index) freezeLocked() *Graph {
	if x.frozen != nil {
		return x.frozen
	}
	np := len(x.pairs)
	nc := x.numCand
	g := &Graph{
		Metric:        x.metric,
		Pairs:         x.pairs[:np:np],
		RootDist:      x.rootDist[:np:np],
		Weight:        x.ones[:np:np],
		NumCandidates: nc,
		candStart:     x.candStart[: nc+1 : nc+1],
		rowBacked:     true,
		rowEdges:      x.numEdges,
		rowFwdPair:    make([][]int32, nc),
		rowFwdDist:    make([][]int32, nc),
		initGains:     make([]int64, nc),
	}
	// Build from scratch returns non-nil (empty) RootDist/Weight even
	// for a pairless corpus; match that shape exactly.
	if g.RootDist == nil {
		g.RootDist = make([]int32, 0)
	}
	if g.Weight == nil {
		g.Weight = make([]int32, 0)
	}
	for u := 0; u < nc; u++ {
		r := x.fwdPair[u]
		g.rowFwdPair[u] = r[:len(r):len(r)]
		d := x.fwdDist[u]
		g.rowFwdDist[u] = d[:len(d):len(d)]
	}
	copy(g.initGains, x.gain)
	x.frozen = g
	return g
}
