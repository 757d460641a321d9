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
// current pair distances and the heap. Slices grow geometrically and
// are reused across solves, so a server solving cache misses in a
// loop, even on a growing item, allocates only the returned Result.
type greedyScratch struct {
	curDist []int32
	heap    []uint64
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
// accelerated greedy, CELF in Leskovec et al., KDD 2007), optionally
// checked against a previous selection.
//
//   - Heap entries: one uint64 per candidate u, gain<<idBits |
//     (idMask−u), with idBits = bits.Len(n). Gains are integers, so
//     comparing entries as unsigned integers orders them by larger gain
//     first and then by smaller index: the order of Algorithm 2's
//     tie-break. No gain exceeds C0 = Σ_w Weight[w]·RootDist[w], the
//     cost of the empty summary; when C0 and the index do not fit in
//     one word together (packBits), the solve falls back to
//     GreedyRebuild, which makes the same selection.
//   - Key initialization: when the graph carries maintained initial
//     gains (Graph.InitGains, present on index-frozen graphs), the
//     O(|E|) initialization scan becomes an O(|U|) copy.
//   - Selection: stored gains are upper bounds — a candidate's gain
//     only shrinks as F grows (submodularity), and stored gains are
//     only ever set to a formerly exact gain. Read the root entry and
//     recompute its candidate's exact gain over its covered row; if
//     the gain still equals the stored one the root is the true argmax
//     and is selected and removed, otherwise the root is overwritten
//     with the refreshed entry and sifted down. No other entry is
//     touched, so the backward adjacency is never walked.
//
// The selection equals Algorithm 2's eager form (which updates the
// keys of the picked candidate's neighbors-of-neighbors after every
// pick) on every input, ties included: a fresh root's gain bounds
// every other stored gain and therefore every other true gain, so its
// candidate has maximal gain; and an equal-gain candidate with a
// smaller index either sits fresh in the heap (its entry is larger, so
// it reaches the root first) or sits stale with a larger gain (it
// reaches the root even earlier, refreshes to the tied gain, and again
// wins on the index bits). Entries are distinct, so the order in which
// candidates reach the root depends only on the set of entries, not on
// the heap's layout. Equivalence is fuzzed against GreedyRebuild
// across batch-, index- and real-ontology graphs.
//
// prev — the previous solve's selection at the same (k, granularity)
// — is compared step by step; warm reports whether it survived the
// corpus delta. A false return (nil prev, shorter prev, a divergence
// caused by the delta, or the GreedyRebuild fallback) is the case the
// store counts, not a different answer.
func GreedyWarm(g *coverage.Graph, k int, prev *Result) (res *Result, warm bool) {
	checkK(g, k)
	n := g.NumCandidates

	s := greedyPool.Get().(*greedyScratch)
	defer greedyPool.Put(s)

	s.curDist = slices.Grow(s.curDist[:0], len(g.Pairs))[:len(g.Pairs)]
	curDist := s.curDist
	c0 := 0
	for w, d := range g.RootDist {
		curDist[w] = d
		c0 += int(d) * int(g.Weight[w])
	}
	idBits, ok := packBits(uint64(c0), n)
	if !ok {
		return GreedyRebuild(g, k), false
	}

	s.heap = slices.Grow(s.heap[:0], n)[:n]
	h := s.heap
	if gains := g.InitGains(); gains != nil {
		// Index-frozen graph: the initial gains, weights included, were
		// maintained at merge time.
		for u, gain := range gains[:n] {
			h[u] = entry(int(gain), u, idBits)
		}
	} else {
		for u := range h {
			h[u] = entry(gainOf(g, curDist, u), u, idBits)
		}
	}
	heapify(h)

	warm = prev != nil && len(prev.Selected) >= k
	res = &Result{Selected: make([]int, 0, k)}
	for len(res.Selected) < k {
		// Exact gain of the root's candidate, packed like the stored
		// entry, so the freshness test is one comparison.
		u := candidate(h[0], idBits)
		if e := entry(gainOf(g, curDist, u), u, idBits); e != h[0] {
			h[0] = e
			siftDown(h, 0)
			continue
		}
		h = popMax(h)
		if warm && prev.Selected[len(res.Selected)] != u {
			warm = false
		}
		res.Selected = append(res.Selected, u)
		cover(g, curDist, u)
	}
	total := 0
	for w, d := range curDist {
		total += int(d) * int(g.Weight[w])
	}
	res.Cost = float64(total)
	return res, warm
}

// gainOf returns δ(u, F): how much adding candidate u lowers the cost
// of the selection F whose per-target distances are curDist.
func gainOf(g *coverage.Graph, curDist []int32, u int) int {
	gain := 0
	pairsRow, distsRow := g.CoveredRow(u)
	for i, w := range pairsRow {
		if diff := curDist[w] - distsRow[i]; diff > 0 {
			gain += int(diff) * int(g.Weight[w])
		}
	}
	return gain
}

// cover adds candidate u to the selection whose per-target distances
// are curDist.
func cover(g *coverage.Graph, curDist []int32, u int) {
	pairsRow, distsRow := g.CoveredRow(u)
	for i, w := range pairsRow {
		if d := distsRow[i]; d < curDist[w] {
			curDist[w] = d
		}
	}
}

// packBits returns the number of low bits a heap entry spends on the
// candidate index for n candidates, and whether gains up to c0 fit in
// the bits above them.
func packBits(c0 uint64, n int) (idBits uint, ok bool) {
	idBits = uint(bits.Len(uint(n)))
	return idBits, uint(bits.Len64(c0))+idBits <= 64
}

// entry packs candidate u's gain into a heap word: the gain above
// idBits low bits that hold the complement of u, so larger words have
// larger gains and, among equal gains, smaller indices.
func entry(gain, u int, idBits uint) uint64 {
	return uint64(gain)<<idBits | (1<<idBits - 1 - uint64(u))
}

// candidate returns the candidate index packed into entry e.
func candidate(e uint64, idBits uint) int {
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
// maximum. Same output, asymptotically slower; the equivalence tests
// compare Greedy against it, and GreedyWarm falls back to it when a
// graph's gains are too large to pack.
func GreedyRebuild(g *coverage.Graph, k int) *Result {
	checkK(g, k)
	n := g.NumCandidates
	curDist := make([]int32, len(g.Pairs))
	copy(curDist, g.RootDist)
	selected := make([]bool, n)
	res := &Result{Selected: make([]int, 0, k)}
	for len(res.Selected) < k {
		bestU, bestGain := -1, -1
		for u := 0; u < n; u++ {
			if selected[u] {
				continue
			}
			if gain := gainOf(g, curDist, u); gain > bestGain {
				bestU, bestGain = u, gain
			}
		}
		selected[bestU] = true
		res.Selected = append(res.Selected, bestU)
		cover(g, curDist, bestU)
	}
	total := 0
	for w, d := range curDist {
		total += int(d) * int(g.Weight[w])
	}
	res.Cost = float64(total)
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
