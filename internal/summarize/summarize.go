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
	"math/rand"
	"sort"
	"sync"

	"osars/internal/coverage"
	"osars/internal/lp"
	"osars/internal/pq"
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
// current pair distances, the initial key vector and the heap. Slices
// grow monotonically and are reused across solves, so a server solving
// cache misses in a loop allocates only the returned Result.
type greedyScratch struct {
	curDist []int32
	keys    []float64
	heap    *pq.Max
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
//   - Key initialization: when the graph carries maintained initial
//     gains (Graph.InitGains, present on index-frozen graphs), the
//     O(|E|) initialization scan becomes an O(|U|) copy.
//   - Selection: stored heap keys are upper bounds — a candidate's
//     gain only shrinks as F grows (submodularity), and keys are only
//     ever set to a formerly exact gain. Pop the max, recompute its
//     exact gain over its covered row; if the gain still equals the
//     stored key the pop is the true argmax and is selected, otherwise
//     the candidate is pushed back with the refreshed key. No other
//     key is touched, so the backward adjacency is never walked.
//
// The selection equals Algorithm 2's eager form (which updates the
// keys of the picked candidate's neighbors-of-neighbors after every
// pick) on every input, ties included: a fresh pop's key bounds every
// other stored key and therefore every other true gain, so its
// candidate has maximal gain; and an equal-gain candidate with a
// smaller index either sits fresh in the heap (the heap breaks key
// ties by smaller index, so it pops first) or sits stale with a larger
// key (it pops even earlier, refreshes to the tied key, reinserts, and
// again wins the index tie-break). Equivalence is fuzzed against
// GreedyRebuild across batch-, index- and real-ontology graphs.
//
// prev — the previous solve's selection at the same (k, granularity)
// — is compared step by step; warm reports whether it survived the
// corpus delta. A false return (nil prev, shorter prev, or a
// divergence caused by the delta) is the fallback case the store
// counts, not a different answer.
func GreedyWarm(g *coverage.Graph, k int, prev *Result) (res *Result, warm bool) {
	checkK(g, k)
	n := g.NumCandidates

	s := greedyPool.Get().(*greedyScratch)
	defer greedyPool.Put(s)

	if cap(s.curDist) < len(g.Pairs) {
		s.curDist = make([]int32, len(g.Pairs))
	}
	curDist := s.curDist[:len(g.Pairs)]
	copy(curDist, g.RootDist)

	if cap(s.keys) < n {
		s.keys = make([]float64, n)
	}
	keys := s.keys[:n]
	if gains := g.InitGains(); gains != nil {
		// Index-frozen graph: the initial keys, weights included, were
		// maintained at merge time.
		for u := 0; u < n; u++ {
			keys[u] = float64(gains[u])
		}
	} else {
		for u := 0; u < n; u++ {
			gain := 0
			pairsRow, distsRow := g.CoveredRow(u)
			for i, w := range pairsRow {
				if diff := curDist[w] - distsRow[i]; diff > 0 {
					gain += int(diff) * int(g.Weight[w])
				}
			}
			keys[u] = float64(gain)
		}
	}
	if s.heap == nil {
		s.heap = pq.NewMax(n)
	} else {
		s.heap.Reset(n)
	}
	heap := s.heap
	heap.BuildFrom(keys)

	warm = prev != nil && len(prev.Selected) >= k
	res = &Result{Selected: make([]int, 0, k)}
	for len(res.Selected) < k {
		u, key := heap.PopMax()
		// Exact gain of u against the current distances. Gains are
		// integers, keys are exact float64 images of integers, so the
		// freshness test is an exact comparison, not a tolerance.
		gain := 0
		pairsRow, distsRow := g.CoveredRow(u)
		for i, w := range pairsRow {
			if diff := curDist[w] - distsRow[i]; diff > 0 {
				gain += int(diff) * int(g.Weight[w])
			}
		}
		if float64(gain) != key {
			heap.Push(u, float64(gain))
			continue
		}
		if warm && prev.Selected[len(res.Selected)] != u {
			warm = false
		}
		res.Selected = append(res.Selected, u)
		for i, w := range pairsRow {
			if d := distsRow[i]; d < curDist[w] {
				curDist[w] = d
			}
		}
	}
	total := 0
	for w, d := range curDist {
		total += int(d) * int(g.Weight[w])
	}
	res.Cost = float64(total)
	return res, warm
}

// GreedyRebuild is the reference implementation of Greedy (DESIGN.md
// ablation 1): instead of refreshing heap keys lazily it recomputes
// every candidate's gain after each selection and takes the first
// maximum. Same output, asymptotically slower; the equivalence tests
// compare Greedy against it.
func GreedyRebuild(g *coverage.Graph, k int) *Result {
	checkK(g, k)
	n := g.NumCandidates
	curDist := make([]int32, len(g.Pairs))
	copy(curDist, g.RootDist)
	selected := make([]bool, n)
	res := &Result{Selected: make([]int, 0, k)}
	for len(res.Selected) < k {
		bestU, bestGain := -1, -1.0
		for u := 0; u < n; u++ {
			if selected[u] {
				continue
			}
			gain := 0.0
			g.Covered(u, func(w, d int) bool {
				if diff := int(curDist[w]) - d; diff > 0 {
					gain += float64(diff * int(g.Weight[w]))
				}
				return true
			})
			if gain > bestGain {
				bestU, bestGain = u, gain
			}
		}
		selected[bestU] = true
		res.Selected = append(res.Selected, bestU)
		g.Covered(bestU, func(w, d int) bool {
			if int32(d) < curDist[w] {
				curDist[w] = int32(d)
			}
			return true
		})
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
