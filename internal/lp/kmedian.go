package lp

import (
	"fmt"
	"math"
	"sort"

	"osars/internal/coverage"
)

// KMedianModel is the paper's §4.2 integer program
//
//	minimize   Σ_{(p,q)∈E} y_pq·d(p,q)
//	s.t.       x_r = 1;  Σ_{p∈P\{r}} x_p = k;
//	           Σ_{p:(p,q)∈E} y_pq = 1  ∀q;   0 ≤ y_pq ≤ x_p;
//	           x_p ∈ {0,1}
//
// expressed in the equivalent layer-cake ("z") form, which has one
// binary x per candidate but no y variables:
//
//	minimize   const + Σ_{q,level} weight·z_{q,level}
//	s.t.       z_{q,level} + Σ_{p covers q within level} x_p ≥ 1
//	           Σ_p x_p = k;   0 ≤ x ≤ 1;   z ≥ 0
//
// The two forms have identical optima both for the LP relaxation and
// for integral x: for fixed x the optimal y assigns each pair q
// greedily to its nearest coverers, and the resulting cost equals
// Σ_{d=0}^{D_q-1} max(0, 1 − Σ_{p: d(p,q)≤d} x_p) because distances
// are integral and the root (always selected, at distance D_q =
// depth(q)) caps every sum at 1. Adjacent distance levels with
// identical coverer sets are merged into a single z variable with the
// level count as its objective weight, keeping the model small.
type KMedianModel struct {
	// Problem is the built LP; callers may inspect but not modify it.
	Problem *Problem
	// XVars[u] is the variable index of candidate u's indicator.
	XVars []int
	// Constant is the objective offset from levels no candidate can
	// cover (only the root covers them).
	Constant float64
	// K is the summary size the model was built for.
	K int
}

// NewKMedianModel builds the model for selecting k candidates from the
// coverage graph. It panics if k is out of range [0, NumCandidates].
func NewKMedianModel(g *coverage.Graph, k int) *KMedianModel {
	if k < 0 || k > g.NumCandidates {
		panic(fmt.Sprintf("lp: k = %d out of range [0, %d]", k, g.NumCandidates))
	}
	m := &KMedianModel{
		Problem: NewProblem(),
		XVars:   make([]int, g.NumCandidates),
		K:       k,
	}
	for u := range m.XVars {
		m.XVars[u] = m.Problem.AddVar(0, 0, 1)
	}

	type coverer struct {
		cand int32
		dist int32
	}
	var covs []coverer
	var rowIdx []int32
	var rowCoef []float64
	for w := range g.Pairs {
		D := int(g.RootDist[w])
		mult := int(g.Weight[w]) // how many pairs of P target w stands for
		if D == 0 || mult == 0 {
			continue // a root-concept pair costs 0 regardless of F
		}
		covs = covs[:0]
		g.Coverers(w, func(u, dist int) bool {
			if dist < D { // a coverer at distance ≥ D never beats the root
				covs = append(covs, coverer{int32(u), int32(dist)})
			}
			return true
		})
		sort.Slice(covs, func(i, j int) bool { return covs[i].dist < covs[j].dist })
		if len(covs) == 0 {
			m.Constant += float64(D * mult)
			continue
		}
		// Levels before the first coverer distance are uncoverable.
		m.Constant += float64(int(covs[0].dist) * mult)
		rowIdx = rowIdx[:0]
		rowCoef = rowCoef[:0]
		i := 0
		for i < len(covs) {
			delta := int(covs[i].dist)
			// Absorb all coverers at this distance into the prefix set.
			for i < len(covs) && int(covs[i].dist) == delta {
				rowIdx = append(rowIdx, int32(m.XVars[covs[i].cand]))
				rowCoef = append(rowCoef, 1)
				i++
			}
			next := D
			if i < len(covs) {
				next = int(covs[i].dist)
			}
			weight := (next - delta) * mult
			if weight <= 0 {
				continue
			}
			z := m.Problem.AddVar(float64(weight), 0, Inf)
			idx := append(append([]int32(nil), rowIdx...), int32(z))
			coef := append(append([]float64(nil), rowCoef...), 1)
			m.Problem.AddRow(GE, 1, idx, coef)
		}
	}

	// Cardinality: Σ x = k.
	idx := make([]int32, len(m.XVars))
	coef := make([]float64, len(m.XVars))
	for u, v := range m.XVars {
		idx[u] = int32(v)
		coef[u] = 1
	}
	m.Problem.AddRow(EQ, float64(k), idx, coef)
	return m
}

// LPResult is the fractional solution of the relaxation.
type LPResult struct {
	// X[u] is the fractional indicator of candidate u (Σ X = k).
	X []float64
	// Objective is the LP optimum including the constant offset; it is
	// a lower bound on the optimal integral summary cost.
	Objective float64
	Iters     int
}

// SolveLP solves the LP relaxation (the input to randomized rounding,
// §4.3).
func (m *KMedianModel) SolveLP(opt *Options) (*LPResult, error) {
	sol, err := m.Problem.Solve(opt)
	if err != nil {
		return nil, fmt.Errorf("lp: k-median LP: %w", err)
	}
	if sol.Status != Optimal {
		return nil, fmt.Errorf("lp: k-median LP status %v", sol.Status)
	}
	r := &LPResult{X: make([]float64, len(m.XVars)), Objective: sol.Objective + m.Constant, Iters: sol.Iters}
	for u, v := range m.XVars {
		r.X[u] = sol.X[v]
	}
	return r, nil
}

// ILPResult is the exact integer solution.
type ILPResult struct {
	// Selected are the chosen candidate indices (len k), or nil when
	// an externally supplied incumbent was proven optimal.
	Selected []int
	// Objective is the optimal summary cost.
	Objective float64
	Nodes     int
	LPIters   int
}

// SolveILP solves the integer program exactly by branch and bound.
// incumbent, when non-nil, is a known feasible cost (e.g. the greedy
// summary's) used for pruning; if the optimum ties it, Selected is nil
// and the caller should keep its incumbent summary.
func (m *KMedianModel) SolveILP(incumbent *float64, opt *MIPOptions) (*ILPResult, error) {
	var o MIPOptions
	if opt != nil {
		o = *opt
	}
	if incumbent != nil {
		inc := *incumbent - m.Constant
		o.Incumbent = &inc
	}
	sol, err := SolveMIP(m.Problem, m.XVars, &o)
	if err != nil {
		return nil, fmt.Errorf("lp: k-median ILP: %w", err)
	}
	if sol.Status != Optimal {
		return nil, fmt.Errorf("lp: k-median ILP status %v", sol.Status)
	}
	r := &ILPResult{Objective: sol.Objective + m.Constant, Nodes: sol.Nodes, LPIters: sol.LPIters}
	if sol.X != nil {
		for u, v := range m.XVars {
			if sol.X[v] > 0.5 {
				r.Selected = append(r.Selected, u)
			}
		}
		if len(r.Selected) != m.K {
			return nil, fmt.Errorf("lp: k-median ILP selected %d candidates, want %d", len(r.Selected), m.K)
		}
	}
	return r, nil
}

// FractionalIsIntegral reports whether an LP solution is already
// integral within tol (common for k-median instances, in which case
// branch and bound terminates at the root).
func FractionalIsIntegral(x []float64, tol float64) bool {
	for _, v := range x {
		if f := v - math.Floor(v); f > tol && f < 1-tol {
			return false
		}
	}
	return true
}
