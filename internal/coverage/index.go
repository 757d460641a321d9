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
// edge found goes straight into its class's forward row (below), the
// only adjacency the greedy reads. Freeze hands out a Graph whose
// forward rows alias the index's own storage — one slice header per
// class, not an O(|E|) copy — and which transposes them into its
// per-candidate backward CSR only if a reader asks for it
// (Graph.buildBackward). The equivalence tests fuzz row identity
// against Build from scratch in both directions.
//
// Targets are deduplicated exactly as Build does: an occurrence whose
// (concept, sentiment) is already a target only raises that target's
// weight. A raised OLD target keeps its edges, but each old coverer's
// gain grows with the weight, so the merge rescans the old part of the
// target's buckets to credit them (no new edges can come from there).
//
// Candidates fall into exact classes: candidates whose distinct targets
// are the same set have the same forward row, gain and distances, so
// the index keeps one row, one gain and one set of bucket occurrences
// per class (Graph's class and first arrays map between the two).
// Phase A resolves a candidate's pairs to targets first and then looks
// its sorted target set up in classKeys: a known set joins its class
// and adds no occurrence, dirty concept or edge, and a new set opens a
// class whose occurrences go to the bucket tails. Everything after
// phase A — buckets, stamps, gains, rows — works per class, so a
// duplicate sentence costs one key lookup. A weight it raises still
// reaches the old classes through the bumped-target rescan below.
//
// The index also maintains each class's initial greedy gain
// Σ_w Weight[w]·max(0, RootDist[w] − d(c,w)) as it merges, so a frozen
// graph carries the warm-start seed (Graph.InitGains) and GreedyWarm
// can skip the O(|E|) key-initialization scan.

package coverage

import (
	"slices"
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

	// The Graph's W arrays: the distinct targets in first-occurrence
	// order. pairs and rootDist are append-only, so frozen graphs alias
	// prefixes of them; weight changes in place when a duplicate
	// arrives, so Freeze copies it.
	pairs    []model.Pair
	rootDist []int32
	weight   []int32

	// slot[c] is 1 + the position of concept c's state in concepts, or
	// 0 when the item does not mention c. It is the only per-ontology-
	// concept array; everything else grows with the item.
	slot     []int32
	concepts []conceptState

	// Candidate classes, as in Graph: class[u] is candidate u's class
	// (len(class) = |U|), first[c] class c's smallest member and size[c]
	// its member count. class and first are append-only, so frozen
	// graphs alias prefixes of them. keys finds a target set's class;
	// key collects the open candidate's targets.
	class []int32
	first []int32
	size  []int32
	keys  classKeys
	key   []int32

	// Per-class forward rows (class → covered targets, ascending target
	// order — the same rows as buildClosure's for every member). Old
	// classes only ever gain edges to NEW targets (their target sets
	// are fixed, so no new edge to an old target can involve them), and
	// new targets are scanned in ascending order, so in-place tail
	// appends preserve the sort. New classes additionally receive old
	// targets out of order during the patch phase; mergeLocked sorts
	// that prefix once at the end. numEdges = Σ_c size[c]·len(fwdPair[c])
	// counts every candidate's edges, as Graph.NumEdges does.
	fwdPair  [][]int32
	fwdDist  [][]int32
	numEdges int

	// gain[c] = Σ_w weight[w]·max(0, rootDist[w] − d(c,w)): the class's
	// initial greedy key, maintained edge by edge.
	gain []int64

	// Dedup scratch (class stamps per target scan, target stamps per
	// merge), the concepts whose buckets this merge extended, and the
	// old targets whose weight it raised.
	stamp  []uint32
	gen    uint32
	tStamp []uint32
	tGen   uint32
	dirty  []ontology.ConceptID
	bumped []targetBump

	// Memoized Freeze: valid while no merge has run since.
	frozen *Graph
}

// conceptState is the index's state for one concept the item mentions.
type conceptState struct {
	// Occurrence bucket (pass 1 of §4.1, kept live instead of rebuilt
	// per solve): one entry for each target of this concept in each
	// class's set, in class order, holding the class and the target's
	// sentiment.
	class []int32
	sent  []float64
	// targets lists the target indices whose concept this is,
	// ascending, so a merge finds the old targets under a dirty concept
	// through its descendants instead of scanning every target, and an
	// occurrence finds its target by sentiment. A concept has few
	// distinct sentiments (at most 20 on a 1,000-review doctor item).
	targets []int32
	// tail is the bucket length before the current merge, so the
	// merge's new occurrences are class[tail:]; between merges it
	// equals len(class).
	tail int32
}

// targetBump records an old target whose weight a merge raised, with
// its weight before the merge.
type targetBump struct {
	w, before int32
}

// NewIndex returns an empty index for the metric and granularity. The
// ontology is pinned: after a hot-swap the store discards the index
// (annotations change too) rather than migrating it.
func NewIndex(m model.Metric, g model.Granularity) *Index {
	return &Index{
		metric: m,
		gran:   g,
		slot:   make([]int32, m.Ont.Len()),
		keys:   classKeys{start: make([]int32, 1)},
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
// sequence merged so far (the store's items guarantee it: an append
// writes only after every published length, so the prefix an index
// merged never changes).
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

// Freeze converts the index into an immutable Graph whose candidate
// rows are identical to Build from scratch over the merged corpus. The
// copy is O(classes) slice headers (the rows themselves are aliased,
// see freezeLocked) and the result is memoized until the next merge.
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

// nextGenLocked advances the class-stamp generation (wrap-safe).
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

// targetLocked returns the target of pair p, an occurrence in the open
// candidate: a new target, or a known one whose weight it raises.
// Targets below oldTargets predate the merge; bumpGen stamps the ones
// already recorded in bumped.
func (x *Index) targetLocked(p model.Pair, oldTargets int, bumpGen uint32) int32 {
	s := x.slot[p.Concept]
	if s == 0 {
		x.concepts = append(x.concepts, conceptState{})
		s = int32(len(x.concepts))
		x.slot[p.Concept] = s
	}
	b := &x.concepts[s-1]
	for _, w := range b.targets {
		if x.pairs[w].Sentiment != p.Sentiment {
			continue
		}
		if int(w) < oldTargets && x.tStamp[w] != bumpGen {
			x.tStamp[w] = bumpGen
			x.bumped = append(x.bumped, targetBump{w: w, before: x.weight[w]})
		}
		x.weight[w]++
		return w
	}
	w := int32(len(x.pairs))
	x.pairs = append(x.pairs, p)
	x.rootDist = append(x.rootDist, int32(x.metric.Ont.Depth(p.Concept)))
	x.weight = append(x.weight, 1)
	b.targets = append(b.targets, w)
	return w
}

// closeCandidateLocked ends the open candidate, whose targets are in
// key: its sorted target set joins a known class, or opens a class with
// an empty forward row whose occurrences go to the bucket tails.
func (x *Index) closeCandidateLocked() {
	slices.Sort(x.key)
	key := slices.Compact(x.key)
	c, fresh := x.keys.intern(key)
	if fresh {
		x.first = append(x.first, int32(len(x.class)))
		x.size = append(x.size, 0)
		x.fwdPair = append(x.fwdPair, nil)
		x.fwdDist = append(x.fwdDist, nil)
		x.gain = append(x.gain, 0)
		for _, w := range key {
			x.fileLocked(c, w)
		}
	}
	x.class = append(x.class, c)
	x.size[c]++
	x.numEdges += len(x.fwdPair[c])
	x.key = x.key[:0]
}

// fileLocked appends class c's occurrence of target w to the tail of
// the target's concept bucket, marking the concept dirty on its first
// occurrence in this merge.
func (x *Index) fileLocked(c, w int32) {
	p := x.pairs[w]
	b := &x.concepts[x.slot[p.Concept]-1]
	if int(b.tail) == len(b.class) {
		x.dirty = append(x.dirty, p.Concept)
	}
	b.class = append(b.class, c)
	b.sent = append(b.sent, p.Sentiment)
}

// mergeLocked is the merge: (A) append the delta's candidates, adding
// targets or raising old ones' weights, and file the occurrences of the
// classes they open, then credit the raised weights to the old
// coverers, (B) probe the dirty bucket tails for the affected OLD
// targets, (C) run the full closure scan for the delta's NEW targets.
// Phase order mirrors the batch builder's two passes: all occurrences
// land before any target scans.
func (x *Index) mergeLocked(reviews []model.Review) {
	ont := x.metric.Ont
	oldTargets := len(x.pairs)
	oldClasses := len(x.first)

	// Phase A: extend U in the batch builder's scan order (candidates
	// ascending, pairs within a group in order). A candidate is one
	// pair, one sentence or one review. Targets keep first-occurrence
	// order, Build's dedup order, and classes the order of their first
	// members.
	bumpGen := x.nextTargetGenLocked()
	for ri := range reviews {
		for si := range reviews[ri].Sentences {
			for _, p := range reviews[ri].Sentences[si].Pairs {
				x.key = append(x.key, x.targetLocked(p, oldTargets, bumpGen))
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
	if nc := len(x.first); cap(x.stamp) < nc {
		grown := make([]uint32, nc)
		copy(grown, x.stamp)
		x.stamp = grown
	}
	x.stamp = x.stamp[:len(x.first)]
	if cap(x.tStamp) < len(x.pairs) {
		grown := make([]uint32, len(x.pairs))
		copy(grown, x.tStamp)
		x.tStamp = grown
	}
	x.tStamp = x.tStamp[:len(x.pairs)]

	// A raised old target's existing coverers all sit in the part of
	// its buckets that predates the merge; credit each the added
	// weight's saving. Its new coverers come in phase B, at full weight.
	for _, bp := range x.bumped {
		x.scanTargetLocked(int(bp.w), bucketHeads, int64(x.weight[bp.w]-bp.before))
	}
	x.bumped = x.bumped[:0]

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
				if int(t) >= oldTargets {
					break
				}
				if x.tStamp[t] != tgen {
					x.tStamp[t] = tgen
					x.scanTargetLocked(int(t), bucketTails, int64(x.weight[t]))
				}
			}
		}
	}

	// Phase C: the delta's own targets scan the now-complete buckets
	// exactly like the batch builder's second pass.
	for w := oldTargets; w < len(x.pairs); w++ {
		x.scanTargetLocked(w, wholeBuckets, int64(x.weight[w]))
	}

	// New classes received their OLD-target edges during phase B in
	// dirty-concept order, not target order; restore the ascending-target
	// invariant by sorting that prefix (everything < oldTargets — phase
	// C's new targets arrived after it, already ascending). Old classes
	// only gained ascending new targets and need nothing.
	for c := oldClasses; c < len(x.first); c++ {
		row := x.fwdPair[c]
		split := 0
		for split < len(row) && row[split] < int32(oldTargets) {
			split++
		}
		if split > 1 {
			sort.Sort(fwdRowSorter{p: row[:split], d: x.fwdDist[c][:split]})
		}
	}

	for _, c := range x.dirty {
		b := &x.concepts[x.slot[c]-1]
		b.tail = int32(len(b.class))
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

// bucketRange selects the part of each bucket a target scan probes.
type bucketRange uint8

const (
	// wholeBuckets probes every occurrence: a new target's full scan.
	wholeBuckets bucketRange = iota
	// bucketTails probes this merge's occurrences, which is all an OLD
	// target can gain edges from: old classes never appear in a tail,
	// so the old edges' dedup decisions stand, and new classes dedup
	// among themselves in the same ancestor-major order the batch scan
	// uses.
	bucketTails
	// bucketHeads probes the occurrences that predate this merge: an
	// old target's existing coverers, whose gains a raised weight
	// changes. It adds no edges.
	bucketHeads
)

// scanTargetLocked runs the batch builder's per-target closure scan for
// target w over the given bucket range, adding weight·max(0,
// rootDist−d) to the gain of each covering class it finds and, except
// over bucketHeads, appending the edge to the class's forward row.
func (x *Index) scanTargetLocked(w int, r bucketRange, weight int64) {
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
		lo, hi := 0, len(b.class)
		switch r {
		case bucketTails:
			lo = int(b.tail)
		case bucketHeads:
			hi = int(b.tail)
		}
		isRoot := anc == root
		d := dists[ai]
		for bi := lo; bi < hi; bi++ {
			c := b.class[bi]
			if x.stamp[c] == gen {
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
			x.stamp[c] = gen
			if diff := rd - d; diff > 0 {
				x.gain[c] += weight * int64(diff)
			}
			if r == bucketHeads {
				continue
			}
			x.fwdPair[c] = append(x.fwdPair[c], int32(w))
			x.fwdDist[c] = append(x.fwdDist[c], d)
			x.numEdges += int(x.size[c])
		}
	}
}

// freezeLocked materializes a Graph in O(classes + |W|): the forward
// rows are slice headers over the index's storage, and the backward CSR
// is left to Graph.buildBackward, on first use. Aliasing is safe
// because those arrays only ever grow by appends: pairs, rootDist,
// class and first are handed out as capacity-capped prefixes, and so is
// each forward row — an in-cap append by a later merge lands beyond the
// frozen length, an over-cap append reallocates. weight and gain are
// copied, since merges raise them in place.
//
// Every candidate's row contents and order match buildClosure's exactly
// (ascending target), which the equivalence tests fuzz via the
// accessor-level row comparison.
func (x *Index) freezeLocked() *Graph {
	if x.frozen != nil {
		return x.frozen
	}
	nt, nu, nc := len(x.pairs), len(x.class), len(x.first)
	g := &Graph{
		Metric:        x.metric,
		Pairs:         x.pairs[:nt:nt],
		RootDist:      x.rootDist[:nt:nt],
		Weight:        append(make([]int32, 0, nt), x.weight...),
		NumCandidates: nu,
		class:         x.class[:nu:nu],
		first:         x.first[:nc:nc],
		fwdPair:       make([][]int32, nc),
		fwdDist:       make([][]int32, nc),
		numEdges:      x.numEdges,
		initGains:     append(make([]int64, 0, nc), x.gain...),
	}
	// Build from scratch returns a non-nil (empty) RootDist even for a
	// pairless corpus; match that shape exactly.
	if g.RootDist == nil {
		g.RootDist = make([]int32, 0)
	}
	for c := range g.fwdPair {
		r := x.fwdPair[c]
		g.fwdPair[c] = r[:len(r):len(r)]
		d := x.fwdDist[c]
		g.fwdDist[c] = d[:len(d):len(d)]
	}
	x.frozen = g
	return g
}

// classKeys maps a candidate's target set — its distinct target
// indices, ascending — to its class, numbering each new set as the next
// class. Single targets, the sets of every pairs candidate and of most
// sentences, are found by direct lookup. Every other set, the empty one
// included, goes through an open-addressing hash table of classes whose
// hits are checked against the stored set, so sets whose hashes collide
// still get separate classes. Those sets are stored back to back in one
// array; no set is allocated on its own.
type classKeys struct {
	one []int32 // one[w]: 1 + the class of {w}, or 0
	// slots holds 1 + a class whose set is not a single target, or 0.
	// Its length is a power of two, at most half of it used.
	slots []int32
	used  int
	// The set of class c, when it is in slots, is
	// sets[start[c]:start[c+1]]; other classes store none. len(start) is
	// one more than the number of classes.
	start []int32
	sets  []int32
}

// intern returns the class of the target set key. A set not seen
// before becomes the next class and fresh is true.
func (k *classKeys) intern(key []int32) (c int32, fresh bool) {
	next := int32(len(k.start) - 1)
	if len(key) == 1 {
		w := int(key[0])
		if w >= len(k.one) {
			k.one = append(k.one, make([]int32, w+1-len(k.one))...)
		}
		if k.one[w] != 0 {
			return k.one[w] - 1, false
		}
		k.one[w] = next + 1
	} else {
		if 2*(k.used+1) > len(k.slots) {
			k.grow()
		}
		i := k.probe(key)
		if s := k.slots[i]; s != 0 {
			return s - 1, false
		}
		k.slots[i] = next + 1
		k.used++
		k.sets = append(k.sets, key...)
	}
	k.start = append(k.start, int32(len(k.sets)))
	return next, true
}

// set returns the target set of class c, which is in slots.
func (k *classKeys) set(c int32) []int32 { return k.sets[k.start[c]:k.start[c+1]] }

// probe returns the slot holding key's class, or the empty slot where
// key belongs.
func (k *classKeys) probe(key []int32) int {
	mask := len(k.slots) - 1
	for i := int(hashKey(key)) & mask; ; i = (i + 1) & mask {
		if s := k.slots[i]; s == 0 || slices.Equal(k.set(s-1), key) {
			return i
		}
	}
}

// grow doubles the slot table, starting at 16 slots, and reinserts the
// classes it held.
func (k *classKeys) grow() {
	old := k.slots
	k.slots = make([]int32, max(16, 2*len(old)))
	for _, s := range old {
		if s != 0 {
			k.slots[k.probe(k.set(s-1))] = s
		}
	}
}

// hashKey mixes a target set into 32 bits.
func hashKey(key []int32) uint32 {
	h := uint64(len(key))
	for _, w := range key {
		h = (h ^ uint64(uint32(w))) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return uint32(h)
}
