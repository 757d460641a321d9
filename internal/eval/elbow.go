package eval

import (
	"osars/internal/coverage"
	"osars/internal/model"
	"osars/internal/summarize"
)

// CoverageRate returns the fraction of pairs of P that a size-k greedy
// summary covers through a summary pair (as opposed to falling back to
// the root), at the given sentiment threshold ε. This is the
// "rate of covered sentences" curve §5.3 feeds to the elbow method.
func CoverageRate(m model.Metric, pairs []model.Pair, k int) float64 {
	if len(pairs) == 0 {
		return 0
	}
	g := coverage.BuildPairs(m, pairs)
	if k > g.NumCandidates {
		k = g.NumCandidates
	}
	res := summarize.Greedy(g, k)
	selected := make([]bool, g.NumCandidates)
	for _, u := range res.Selected {
		selected[u] = true
	}
	covered := 0
	for w := range g.Pairs {
		g.Coverers(w, func(u, dist int) bool {
			if selected[u] {
				covered += int(g.Weight[w])
				return false
			}
			return true
		})
	}
	return float64(covered) / float64(len(pairs))
}

// EpsilonSweep evaluates CoverageRate at each candidate ε.
func EpsilonSweep(ont model.Metric, pairs []model.Pair, k int, epsilons []float64) []float64 {
	rates := make([]float64, len(epsilons))
	for i, eps := range epsilons {
		m := model.Metric{Ont: ont.Ont, Epsilon: eps}
		rates[i] = CoverageRate(m, pairs, k)
	}
	return rates
}

// Elbow returns the index of the elbow of a monotone curve y(x): the
// point with the largest vertical distance from the chord joining the
// endpoints (the "kneedle" criterion). For the ε sweep this is the
// threshold beyond which further increases stop buying coverage —
// the paper reports it lands at 0.5 on its data (§5.3).
func Elbow(xs, ys []float64) int {
	n := len(xs)
	if n == 0 {
		return -1
	}
	if n == 1 {
		return 0
	}
	x0, y0 := xs[0], ys[0]
	x1, y1 := xs[n-1], ys[n-1]
	dx, dy := x1-x0, y1-y0
	best, bestDist := 0, -1.0
	for i := 0; i < n; i++ {
		// Perpendicular distance from (xs[i], ys[i]) to the chord,
		// scaled by the constant chord length (irrelevant for argmax).
		d := dy*xs[i] - dx*ys[i] + x1*y0 - y1*x0
		if d < 0 {
			d = -d
		}
		if d > bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// SelectEpsilon runs the full §5.3 procedure: sweep ε over the
// candidate grid, compute coverage rates with a size-k greedy summary,
// and return the elbow ε together with the rates.
func SelectEpsilon(m model.Metric, pairs []model.Pair, k int, epsilons []float64) (eps float64, rates []float64) {
	rates = EpsilonSweep(m, pairs, k, epsilons)
	idx := Elbow(epsilons, rates)
	if idx < 0 {
		return 0.5, rates
	}
	return epsilons[idx], rates
}
