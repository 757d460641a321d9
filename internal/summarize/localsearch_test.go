package summarize

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLocalSearchNeverWorseThanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 14, 24)
		k := 1 + rng.Intn(4)
		if k > g.NumCandidates {
			k = g.NumCandidates
		}
		greedy := Greedy(g, k)
		ls := LocalSearch(g, k, nil)
		if ls.Cost > greedy.Cost+1e-9 {
			t.Fatalf("trial %d: local search %v worse than greedy %v", trial, ls.Cost, greedy.Cost)
		}
		if len(ls.Selected) != k {
			t.Fatalf("trial %d: selected %v", trial, ls.Selected)
		}
		if got := g.CostOf(ls.Selected); math.Abs(got-ls.Cost) > 1e-9 {
			t.Fatalf("trial %d: reported %v, recomputed %v", trial, ls.Cost, got)
		}
	}
}

func TestLocalSearchNeverBeatsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 10, 10)
		k := 1 + rng.Intn(3)
		if k > g.NumCandidates {
			k = g.NumCandidates
		}
		ls := LocalSearch(g, k, nil)
		opt := BruteForce(g, k)
		if ls.Cost < opt.Cost-1e-9 {
			t.Fatalf("trial %d: local search %v below optimum %v", trial, ls.Cost, opt.Cost)
		}
	}
}

// Property: the result is a genuine 1-swap local optimum — no single
// swap improves the cost.
func TestQuickLocalSearchIsLocalOptimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 10, 12)
		k := 1 + rng.Intn(3)
		if k > g.NumCandidates {
			k = g.NumCandidates
		}
		res := LocalSearch(g, k, nil)
		inSel := make(map[int]bool, k)
		for _, u := range res.Selected {
			inSel[u] = true
		}
		for _, u := range res.Selected {
			for v := 0; v < g.NumCandidates; v++ {
				if inSel[v] {
					continue
				}
				swapped := make([]int, 0, k)
				for _, s := range res.Selected {
					if s != u {
						swapped = append(swapped, s)
					}
				}
				swapped = append(swapped, v)
				if g.CostOf(swapped) < res.Cost-1e-6 {
					t.Logf("seed %d: swap (%d→%d) improves %v to %v", seed, u, v, res.Cost, g.CostOf(swapped))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSearchKZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 8, 8)
	res := LocalSearch(g, 0, nil)
	if len(res.Selected) != 0 || res.Cost != g.EmptyCost() {
		t.Fatalf("k=0 result = %+v", res)
	}
}

func TestLocalSearchOnWeightedGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	q := mergedPairsGraph(randomPairs(rng, 12, 20))
	k := 2
	if k > q.NumCandidates {
		k = q.NumCandidates
	}
	res := LocalSearch(q, k, nil)
	if got := q.CostOf(res.Selected); math.Abs(got-res.Cost) > 1e-9 {
		t.Fatalf("weighted local search cost %v, recomputed %v", res.Cost, got)
	}
}
