// Package summarize implements the paper's three summary-selection
// algorithms (§4) over a precomputed coverage graph:
//
//   - Greedy (§4.4, Algorithm 2): submodular greedy over a max-heap of
//     lazily refreshed gains; Wolsey's bound (Theorem 4) applies.
//   - RandomizedRounding (§4.3, Algorithm 1): solve the LP relaxation,
//     then sample k candidates without replacement from x/‖x‖₁; the
//     bound of Theorem 3 applies.
//   - ILP (§4.2): exact optimum by branch and bound on the k-medians
//     integer program.
//
// All three work at any granularity (pairs, sentences, whole reviews)
// because the granularity is fixed earlier, when the coverage graph is
// built (§4.5). BruteForce is a test oracle for tiny instances.
package summarize

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"osars/internal/coverage"
	"osars/internal/lp"
)

// Result is a computed summary: the selected candidate indices (in
// selection order for Greedy, ascending otherwise) and the exact
// Definition-2 cost of the selection.
type Result struct {
	Selected []int
	Cost     float64
	// PrefixCost, set by the greedy, holds the integer cost of every
	// prefix of Selected: PrefixCost[j] is the cost of Selected[:j], and
	// Cost is float64(PrefixCost[len(Selected)]). Algorithm 2 reads k
	// only to stop, so Selected[:j] is also the greedy selection at j.
	PrefixCost []int

	// Diagnostics, populated by the algorithm that produced the
	// result; zero when not applicable.

	// LPIters counts simplex pivots (RR and ILP).
	LPIters int
	// Nodes counts branch-and-bound nodes (ILP).
	Nodes int
	// LPObjective is the fractional lower bound (RR).
	LPObjective float64
}

func checkK(g *coverage.Graph, k int) {
	if k < 0 || k > g.NumCandidates {
		panic(fmt.Sprintf("summarize: k = %d out of range [0, %d]", k, g.NumCandidates))
	}
}

// greedyScratch is the pooled per-solve state of GreedyWarm: the
// current pair distances, the heap, and the selected-candidate marks of
// the zero-gain fill (all false between solves). Slices grow
// geometrically and are reused across solves, so a server solving cache
// misses in a loop, even on a growing item, allocates only the returned
// Result.
type greedyScratch struct {
	curDist []int32
	heap    []uint64
	picked  []bool
}

var greedyPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// Greedy runs Algorithm 2: start from F = {root} and repeat k times,
// adding the candidate with the largest cost reduction δ(p, F), ties
// broken by the smaller candidate index. It is GreedyWarm without a
// previous selection.
func Greedy(g *coverage.Graph, k int) *Result {
	res, _ := GreedyWarm(g, k, nil)
	return res
}

// GreedyWarm is Algorithm 2's selection computed lazily (Minoux's
// accelerated greedy, CELF in Leskovec et al., KDD 2007) over the
// graph's candidate classes, optionally checked against a previous
// selection.
//
//   - Classes: the members of a class share one forward row, so they
//     have equal gains, and Algorithm 2's tie-break prefers the class's
//     first (smallest) member; once it is picked every other member has
//     gain 0. The heap therefore holds one entry per class, and picking
//     a class selects its first member. A batch-built graph has one
//     class per candidate, so this is the per-candidate greedy.
//   - Heap entries: one uint64 per class c, gain<<idBits | (idMask−c),
//     with idBits = bits.Len(number of classes). Gains are integers, so
//     comparing entries as unsigned integers orders them by larger gain
//     first and then by smaller class, which is the smaller first
//     member since classes are numbered in order of their first
//     members: the order of Algorithm 2's tie-break. No gain exceeds C0
//     = Σ_w Weight[w]·RootDist[w], the cost of the empty summary; when
//     C0 and the class do not fit in one word together (packBits), the
//     solve falls back to GreedyRebuild, which makes the same
//     selection.
//   - Key initialization: when the graph carries maintained initial
//     gains (Graph.InitGains, present on index-frozen graphs), the
//     O(|E|) initialization scan becomes an O(classes) copy.
//   - Selection: stored gains are upper bounds — a class's gain only
//     shrinks as F grows (submodularity), and stored gains are only
//     ever set to a formerly exact gain. Read the root entry and
//     recompute its class's exact gain over its row; if the gain still
//     equals the stored one the root is the true argmax and is selected
//     and removed, otherwise the root is overwritten with the refreshed
//     entry and sifted down. No other entry is touched, so the backward
//     adjacency is never walked.
//   - Zero-gain fill: once a fresh root's gain is 0 (or every class is
//     picked), every unselected candidate has gain 0, and Algorithm 2
//     takes the smallest unselected candidate indices in order; the
//     solve appends those directly.
//
// The selection equals Algorithm 2's eager form (which updates the
// keys of the picked candidate's neighbors-of-neighbors after every
// pick) on every input, ties included: a fresh root's gain bounds
// every other stored gain and therefore every other true gain, so its
// class has maximal gain; and an equal-gain class with a smaller index
// either sits fresh in the heap (its entry is larger, so it reaches
// the root first) or sits stale with a larger gain (it reaches the
// root even earlier, refreshes to the tied gain, and again wins on the
// index bits). Entries are distinct, so the order in which classes
// reach the root depends only on the set of entries, not on the heap's
// layout. Equivalence is fuzzed against GreedyRebuild, which scans
// every candidate, across batch-, index- and real-ontology graphs.
//
// The greedy records the cost of every prefix as it picks
// (Result.PrefixCost: C0 minus the running gain; the fill repeats the
// last cost). k only ends the loop, so the selection at any j ≤ k is
// Selected[:j].
//
// prev — a previous selection at this granularity, such as the one the
// store keeps per item — is compared with the selection; warm reports
// whether the selection is a prefix of prev. A false return (nil prev,
// shorter prev, a divergence caused by a corpus delta, or the
// GreedyRebuild fallback) is the case the store counts, not a
// different answer.
func GreedyWarm(g *coverage.Graph, k int, prev *Result) (res *Result, warm bool) {
	checkK(g, k)
	nc := g.NumClasses()

	s := greedyPool.Get().(*greedyScratch)
	defer greedyPool.Put(s)

	s.curDist = slices.Grow(s.curDist[:0], len(g.Pairs))[:len(g.Pairs)]
	curDist := s.curDist
	c0 := 0
	for w, d := range g.RootDist {
		curDist[w] = d
		c0 += int(d) * int(g.Weight[w])
	}
	idBits, ok := packBits(uint64(c0), nc)
	if !ok {
		return GreedyRebuild(g, k), false
	}

	s.heap = slices.Grow(s.heap[:0], nc)[:nc]
	h := s.heap
	if gains := g.InitGains(); gains != nil {
		// Index-frozen graph: the initial gains, weights included, were
		// maintained at merge time.
		for c, gain := range gains[:nc] {
			h[c] = entry(int(gain), c, idBits)
		}
	} else {
		for c := range h {
			pairs, dists := g.ClassRow(c)
			h[c] = entry(gainOf(g, curDist, pairs, dists), c, idBits)
		}
	}
	heapify(h)

	res = newGreedyResult(k, c0)
	for len(res.Selected) < k && len(h) > 0 {
		// Exact gain of the root's class, packed like the stored entry,
		// so the freshness test is one comparison.
		c := classOf(h[0], idBits)
		pairs, dists := g.ClassRow(c)
		gain := gainOf(g, curDist, pairs, dists)
		if e := entry(gain, c, idBits); e != h[0] {
			h[0] = e
			siftDown(h, 0)
			continue
		}
		if gain == 0 {
			break
		}
		h = popMax(h)
		res.pick(g.ClassFirst(c), gain)
		cover(curDist, pairs, dists)
	}
	if len(res.Selected) < k {
		// Zero-gain fill: the smallest unselected candidates, in order.
		// They lower no distance, so the cost stands.
		picked := slices.Grow(s.picked[:0], g.NumCandidates)[:g.NumCandidates]
		s.picked = picked
		for _, u := range res.Selected {
			picked[u] = true
		}
		for u := 0; len(res.Selected) < k; u++ {
			if !picked[u] {
				res.pick(u, 0)
			}
		}
		for _, u := range res.Selected {
			picked[u] = false
		}
	}
	warm = prev != nil && len(prev.Selected) >= k && slices.Equal(prev.Selected[:k], res.Selected)
	return res, warm
}

// newGreedyResult returns an empty greedy Result with room for k picks,
// whose empty prefix costs c0. Selected and PrefixCost share one
// allocation, each capped at its own capacity.
func newGreedyResult(k, c0 int) *Result {
	buf := make([]int, 2*k+1)
	buf[k] = c0
	return &Result{Selected: buf[:0:k], Cost: float64(c0), PrefixCost: buf[k : k+1 : 2*k+1]}
}

// pick appends candidate u, whose gain over the selection so far is
// gain, and records the cost of the longer prefix.
func (r *Result) pick(u, gain int) {
	c := r.PrefixCost[len(r.Selected)] - gain
	r.Selected = append(r.Selected, u)
	r.PrefixCost = append(r.PrefixCost, c)
	r.Cost = float64(c)
}

// gainOf returns δ(F): how much adding a candidate whose forward row is
// (pairs, dists) lowers the cost of the selection F whose per-target
// distances are curDist.
func gainOf(g *coverage.Graph, curDist, pairs, dists []int32) int {
	gain := 0
	for i, w := range pairs {
		if diff := curDist[w] - dists[i]; diff > 0 {
			gain += int(diff) * int(g.Weight[w])
		}
	}
	return gain
}

// cover adds a candidate whose forward row is (pairs, dists) to the
// selection whose per-target distances are curDist.
func cover(curDist, pairs, dists []int32) {
	for i, w := range pairs {
		if d := dists[i]; d < curDist[w] {
			curDist[w] = d
		}
	}
}

// packBits returns the number of low bits a heap entry spends on the
// class index for n classes, and whether gains up to c0 fit in the bits
// above them.
func packBits(c0 uint64, n int) (idBits uint, ok bool) {
	idBits = uint(bits.Len(uint(n)))
	return idBits, uint(bits.Len64(c0))+idBits <= 64
}

// entry packs class c's gain into a heap word: the gain above idBits
// low bits that hold the complement of c, so larger words have larger
// gains and, among equal gains, smaller indices.
func entry(gain, c int, idBits uint) uint64 {
	return uint64(gain)<<idBits | (1<<idBits - 1 - uint64(c))
}

// classOf returns the class index packed into entry e.
func classOf(e uint64, idBits uint) int {
	mask := uint64(1)<<idBits - 1
	return int(mask - e&mask)
}

// heapify arranges h into a max-heap in O(len(h)) (Floyd).
func heapify(h []uint64) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// popMax removes the largest entry, h[0], from the max-heap h and
// returns the shortened heap.
func popMax(h []uint64) []uint64 {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	if last > 0 {
		siftDown(h, 0)
	}
	return h
}

// siftDown moves h[i] down until no child of it is larger.
func siftDown(h []uint64, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[c] <= x {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// GreedyRebuild is the reference implementation of Greedy (DESIGN.md
// ablation 1): instead of refreshing heap keys lazily it recomputes
// every candidate's gain after each selection and takes the first
// maximum, one candidate at a time, with no classes and no fill rule.
// Same output, asymptotically slower; the equivalence tests compare
// Greedy against it, and GreedyWarm falls back to it when a graph's
// gains are too large to pack.
func GreedyRebuild(g *coverage.Graph, k int) *Result {
	checkK(g, k)
	n := g.NumCandidates
	curDist := make([]int32, len(g.Pairs))
	copy(curDist, g.RootDist)
	c0 := 0
	for w, d := range curDist {
		c0 += int(d) * int(g.Weight[w])
	}
	selected := make([]bool, n)
	res := newGreedyResult(k, c0)
	for len(res.Selected) < k {
		bestU, bestGain := -1, -1
		for u := 0; u < n; u++ {
			if selected[u] {
				continue
			}
			pairs, dists := g.CoveredRow(u)
			if gain := gainOf(g, curDist, pairs, dists); gain > bestGain {
				bestU, bestGain = u, gain
			}
		}
		selected[bestU] = true
		res.pick(bestU, bestGain)
		pairs, dists := g.CoveredRow(bestU)
		cover(curDist, pairs, dists)
	}
	return res
}

// RandomizedRounding runs Algorithm 1: solve the LP relaxation of the
// k-medians program, then draw k candidates without replacement from
// the distribution q(p) = x_p / Σ x_p. The rng makes runs reproducible;
// lpOpt may be nil for defaults. It is RandomizedRoundingBest with one
// trial.
func RandomizedRounding(g *coverage.Graph, k int, rng *rand.Rand, lpOpt *lp.Options) (*Result, error) {
	return RandomizedRoundingBest(g, k, 1, rng, lpOpt)
}

// sampleWithoutReplacement draws k indices from the weight vector w
// without replacement (weights of drawn indices are removed before the
// next draw), matching Algorithm 1's "sample one pair without
// replacement from q" loop.
func sampleWithoutReplacement(w []float64, k int, rng *rand.Rand) []int {
	weights := append([]float64(nil), w...)
	total := 0.0
	for i, x := range weights {
		if x < 0 {
			weights[i] = 0
			continue
		}
		total += x
	}
	out := make([]int, 0, k)
	taken := make([]bool, len(weights))
	for len(out) < k {
		if total <= 1e-12 {
			// Degenerate fractional mass (fewer than k positive
			// weights after numerical cleanup): fill deterministically
			// with the lowest untaken indices.
			for i := range weights {
				if !taken[i] {
					taken[i] = true
					out = append(out, i)
					if len(out) == k {
						break
					}
				}
			}
			break
		}
		r := rng.Float64() * total
		pick := -1
		for i, x := range weights {
			if taken[i] || x <= 0 {
				continue
			}
			r -= x
			if r <= 0 {
				pick = i
				break
			}
		}
		if pick < 0 { // float roundoff: take the last positive weight
			for i := len(weights) - 1; i >= 0; i-- {
				if !taken[i] && weights[i] > 0 {
					pick = i
					break
				}
			}
		}
		taken[pick] = true
		out = append(out, pick)
		total -= weights[pick]
		weights[pick] = 0
	}
	return out
}

// RandomizedRoundingBest is the multi-trial extension of Algorithm 1:
// the LP relaxation is solved once, the rounding step is repeated
// `trials` times, and the cheapest sampled summary is kept. The paper
// rounds once; this variant trades a little selection time for the
// variance reduction measured by BenchmarkAblationRRTrials.
func RandomizedRoundingBest(g *coverage.Graph, k, trials int, rng *rand.Rand, lpOpt *lp.Options) (*Result, error) {
	checkK(g, k)
	if trials < 1 {
		trials = 1
	}
	m := lp.NewKMedianModel(g, k)
	lpRes, err := m.SolveLP(lpOpt)
	if err != nil {
		return nil, fmt.Errorf("summarize: randomized rounding: %w", err)
	}
	best := &Result{Cost: math.Inf(1), LPIters: lpRes.Iters, LPObjective: lpRes.Objective}
	var cs coverage.CostScratch // one scratch across all trials
	for t := 0; t < trials; t++ {
		sel := sampleWithoutReplacement(lpRes.X, k, rng)
		if c := g.CostOfWith(&cs, sel); c < best.Cost {
			sort.Ints(sel)
			best.Selected = sel
			best.Cost = c
		}
	}
	return best, nil
}

// ILP computes the exact optimal summary (§4.2). It first runs Greedy
// to obtain an incumbent, which both prunes the branch-and-bound tree
// and serves as the answer when the tree proves the greedy summary
// already optimal. mipOpt may be nil for defaults.
func ILP(g *coverage.Graph, k int, mipOpt *lp.MIPOptions) (*Result, error) {
	checkK(g, k)
	inc := Greedy(g, k)
	m := lp.NewKMedianModel(g, k)
	// Nodes tying the incumbent are pruned, so nil Selected from the
	// solver means the greedy summary is optimal and we return it.
	incObj := inc.Cost
	res, err := m.SolveILP(&incObj, mipOpt)
	if err != nil {
		return nil, fmt.Errorf("summarize: ILP: %w", err)
	}
	out := &Result{LPIters: res.LPIters, Nodes: res.Nodes}
	if res.Selected == nil || res.Objective >= inc.Cost-1e-9 {
		sel := append([]int(nil), inc.Selected...)
		sort.Ints(sel)
		out.Selected = sel
		out.Cost = inc.Cost
		return out, nil
	}
	out.Selected = res.Selected
	out.Cost = g.CostOf(res.Selected)
	if math.Abs(out.Cost-res.Objective) > 1e-6 {
		return nil, fmt.Errorf("summarize: ILP objective %v disagrees with selection cost %v", res.Objective, out.Cost)
	}
	return out, nil
}

// BruteForce enumerates all size-k subsets; exponential, test oracle
// only.
func BruteForce(g *coverage.Graph, k int) *Result {
	checkK(g, k)
	n := g.NumCandidates
	sel := make([]int, k)
	best := math.Inf(1)
	var bestSel []int
	var cs coverage.CostScratch
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == k {
			if c := g.CostOfWith(&cs, sel); c < best {
				best = c
				bestSel = append(bestSel[:0], sel...)
			}
			return
		}
		for i := start; i <= n-(k-depth); i++ {
			sel[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return &Result{Selected: append([]int(nil), bestSel...), Cost: best}
}

// Algorithm names the three methods for harness configuration.
type Algorithm int

// The paper's three algorithms (§4), in the order of Figs 4-5.
const (
	AlgILP Algorithm = iota
	AlgRR
	AlgGreedy
)

func (a Algorithm) String() string {
	switch a {
	case AlgILP:
		return "ILP"
	case AlgRR:
		return "RR"
	case AlgGreedy:
		return "Greedy"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Run dispatches to the selected algorithm with default options. The
// rng is used only by AlgRR.
func Run(a Algorithm, g *coverage.Graph, k int, rng *rand.Rand) (*Result, error) {
	switch a {
	case AlgILP:
		return ILP(g, k, nil)
	case AlgRR:
		return RandomizedRounding(g, k, rng, nil)
	case AlgGreedy:
		return Greedy(g, k), nil
	default:
		return nil, fmt.Errorf("summarize: unknown algorithm %v", a)
	}
}
