package coverage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"osars/internal/model"
	"osars/internal/ontology"
)

// randomDAG builds a random multi-parent ontology: n concepts under a
// root, each with one random parent among the earlier concepts plus a
// few extra random edges (earlier → later keeps it acyclic).
func randomDAG(t testing.TB, rng *rand.Rand, n int) *ontology.Ontology {
	t.Helper()
	var b ontology.Builder
	ids := make([]ontology.ConceptID, 0, n+1)
	ids = append(ids, b.AddConcept("root"))
	for i := 0; i < n; i++ {
		parent := ids[rng.Intn(len(ids))]
		ids = append(ids, b.Child(parent, fmt.Sprintf("c%d", i)))
	}
	extra := rng.Intn(n + 1)
	for i := 0; i < extra; i++ {
		pi := rng.Intn(len(ids) - 1)
		ci := pi + 1 + rng.Intn(len(ids)-pi-1)
		// Duplicate edges are rejected by the builder; skip them.
		_ = b.AddEdge(ids[pi], ids[ci])
	}
	o, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// randomItem generates reviews over the ontology's concepts with
// quantized sentiments, so the ε boundary is exercised exactly.
func randomItem(rng *rand.Rand, o *ontology.Ontology, numReviews int) *model.Item {
	item := &model.Item{ID: "fuzz", Name: "fuzz"}
	for ri := 0; ri < numReviews; ri++ {
		r := model.Review{ID: fmt.Sprintf("r%d", ri)}
		for si := 0; si < rng.Intn(4); si++ {
			s := model.Sentence{Text: fmt.Sprintf("s%d/%d", ri, si)}
			for pi := 0; pi < rng.Intn(4); pi++ {
				s.Pairs = append(s.Pairs, model.Pair{
					Concept:   ontology.ConceptID(rng.Intn(o.Len())),
					Sentiment: float64(rng.Intn(21)-10) / 10,
				})
			}
			r.Sentences = append(r.Sentences, s)
		}
		item.Reviews = append(item.Reviews, r)
	}
	return item
}

// dupItem draws reviews over a handful of concepts and five
// sentiments, so most pairs repeat an earlier one, in the same
// sentence, the same review or an earlier review.
func dupItem(rng *rand.Rand, o *ontology.Ontology, numReviews int) *model.Item {
	concepts := make([]ontology.ConceptID, 2+rng.Intn(4))
	for i := range concepts {
		concepts[i] = ontology.ConceptID(rng.Intn(o.Len()))
	}
	item := &model.Item{ID: "dup", Name: "dup"}
	for ri := 0; ri < numReviews; ri++ {
		r := model.Review{ID: fmt.Sprintf("r%d", ri)}
		for si := 0; si < 1+rng.Intn(3); si++ {
			s := model.Sentence{Text: fmt.Sprintf("s%d/%d", ri, si)}
			for pi := 0; pi < rng.Intn(4); pi++ {
				s.Pairs = append(s.Pairs, model.Pair{
					Concept:   concepts[rng.Intn(len(concepts))],
					Sentiment: float64(rng.Intn(5)-2) / 2,
				})
			}
			r.Sentences = append(r.Sentences, s)
		}
		item.Reviews = append(item.Reviews, r)
	}
	return item
}

var allGranularities = []model.Granularity{
	model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
}

// requireInitGains asserts the index-maintained warm-start seed equals
// the initial greedy gains computed from the graph, one per class.
func requireInitGains(t *testing.T, g *Graph, label string) {
	t.Helper()
	gains := g.InitGains()
	if gains == nil {
		t.Fatalf("%s: frozen graph has no InitGains", label)
	}
	if len(gains) != g.NumClasses() {
		t.Fatalf("%s: InitGains len = %d, want %d classes", label, len(gains), g.NumClasses())
	}
	for c := 0; c < g.NumClasses(); c++ {
		want := int64(0)
		pairs, dists := g.ClassRow(c)
		for i, w := range pairs {
			if diff := g.RootDist[w] - dists[i]; diff > 0 {
				want += int64(g.Weight[w]) * int64(diff)
			}
		}
		if gains[c] != want {
			t.Fatalf("%s: InitGains[%d] = %d, want %d", label, c, gains[c], want)
		}
	}
}

// requireIndexMatchesBuild merges the item into a fresh index along
// the given append schedule, comparing every intermediate Freeze to a
// from-scratch Build of the same prefix.
func requireIndexMatchesBuild(t *testing.T, m model.Metric, item *model.Item, schedule []int, label string) {
	t.Helper()
	for _, g := range allGranularities {
		idx := NewIndex(m, g)
		done := 0
		for step, chunk := range schedule {
			idx.Merge(item.Reviews[done : done+chunk])
			done += chunk
			prefix := &model.Item{ID: item.ID, Name: item.Name, Reviews: item.Reviews[:done]}
			got := idx.Freeze()
			want := Build(m, prefix, g)
			lbl := fmt.Sprintf("%s/%v/step%d(+%d)", label, g, step, chunk)
			requireGraphsEqual(t, got, want, lbl)
			requireInitGains(t, got, lbl)
			requireClassInvariants(t, got, prefix, g, lbl)
			if again := idx.Freeze(); again != got {
				t.Fatalf("%s: Freeze not memoized between merges", lbl)
			}
		}
	}
}

// candidateGroups returns the pair group of each candidate of the item
// at the granularity, in candidate order.
func candidateGroups(item *model.Item, g model.Granularity) [][]model.Pair {
	switch g {
	case model.GranularityPairs:
		return pairGroups(item.Pairs())
	case model.GranularitySentences:
		groups, _ := SentenceGroups(item)
		return groups
	default:
		groups, _ := ReviewGroups(item)
		return groups
	}
}

// requireClassInvariants asserts that an index-frozen graph's classes
// are exactly the item's distinct candidate pair sets at the
// granularity: first strictly ascends and holds each class's first
// member, every member of a class has the class's distinct pair set,
// and no two classes share a pair set.
func requireClassInvariants(t *testing.T, g *Graph, item *model.Item, gran model.Granularity, label string) {
	t.Helper()
	groups := candidateGroups(item, gran)
	if len(g.class) != len(groups) || g.NumCandidates != len(groups) {
		t.Fatalf("%s: %d class entries for %d candidates", label, len(g.class), len(groups))
	}
	for c, u := range g.first {
		if c > 0 && u <= g.first[c-1] {
			t.Fatalf("%s: first[%d] = %d does not ascend past %d", label, c, u, g.first[c-1])
		}
		if g.class[u] != int32(c) {
			t.Fatalf("%s: first member %d of class %d is in class %d", label, u, c, g.class[u])
		}
	}
	owner := map[string]int32{} // distinct pair set → its class
	for u, group := range groups {
		set := map[model.Pair]bool{}
		for _, p := range group {
			set[p] = true
		}
		distinct := make([]string, 0, len(set))
		for p := range set {
			distinct = append(distinct, fmt.Sprintf("%d/%v", p.Concept, p.Sentiment))
		}
		sort.Strings(distinct)
		key := strings.Join(distinct, ";")
		c := g.class[u]
		if want, ok := owner[key]; ok {
			if c != want {
				t.Fatalf("%s: candidate %d has class %d's pair set but class %d", label, u, want, c)
			}
			continue
		}
		if int(g.first[c]) != u {
			t.Fatalf("%s: candidate %d opens pair set {%s} but joins class %d (first %d)", label, u, key, c, g.first[c])
		}
		owner[key] = c
	}
	if len(owner) != g.NumClasses() {
		t.Fatalf("%s: %d distinct pair sets, %d classes", label, len(owner), g.NumClasses())
	}
}

// randomSchedule partitions n reviews into random append chunk sizes
// (zero-length chunks included: empty merges must be no-ops).
func randomSchedule(rng *rand.Rand, n int) []int {
	var out []int
	for left := n; left > 0; {
		c := rng.Intn(left + 1) // may be 0
		out = append(out, c)
		left -= c
	}
	out = append(out, 0)
	return out
}

// TestIndexMatchesBuildDiamond pins merge/freeze equivalence on the
// multi-parent diamond DAG with a one-review-at-a-time schedule — the
// store's steady-state append pattern.
func TestIndexMatchesBuildDiamond(t *testing.T) {
	o, ids := diamondOntology(t)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	item := &model.Item{ID: "d1", Reviews: []model.Review{
		{ID: "r0", Sentences: []model.Sentence{
			{Text: "a", Pairs: []model.Pair{{Concept: ids["oled"], Sentiment: 0.9}, {Concept: ids["screen"], Sentiment: 0.7}}},
			{Text: "b", Pairs: []model.Pair{{Concept: ids["burnin"], Sentiment: -0.7}}},
		}},
		{ID: "r1", Sentences: []model.Sentence{
			{Text: "c"}, // pairless sentence: candidate that covers nothing
			{Text: "d", Pairs: []model.Pair{{Concept: ids["panel"], Sentiment: -0.9}, {Concept: ids["device"], Sentiment: 0.6}}},
		}},
		{ID: "r2"}, // pairless review
		{ID: "r3", Sentences: []model.Sentence{
			{Text: "e", Pairs: []model.Pair{{Concept: ids["burnin"], Sentiment: 0.8}, {Concept: ids["oled"], Sentiment: -0.2}}},
		}},
	}}
	schedule := []int{1, 1, 1, 1}
	requireIndexMatchesBuild(t, m, item, schedule, "diamond")

	// One-shot merge must equal the same corpus merged review by review.
	for _, g := range allGranularities {
		idx := NewIndex(m, g)
		idx.Merge(item.Reviews)
		requireGraphsEqual(t, idx.Freeze(), Build(m, item, g), "diamond/oneshot/"+g.String())
	}
}

// TestIndexMatchesBuildFuzz fuzzes merge/freeze byte-equivalence
// against from-scratch builds, and the index's candidate classes
// against the candidates' pair sets: random DAGs, random and
// duplicate-dense corpora, random append schedules, all granularities,
// several epsilons.
func TestIndexMatchesBuildFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(1138))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		o := randomDAG(t, rng, 3+rng.Intn(15))
		eps := []float64{0.1, 0.3, 1.0}[rng.Intn(3)]
		m := model.Metric{Ont: o, Epsilon: eps}
		item := randomItem(rng, o, 1+rng.Intn(12))
		schedule := randomSchedule(rng, len(item.Reviews))
		requireIndexMatchesBuild(t, m, item, schedule,
			fmt.Sprintf("fuzz%d(eps=%.1f)", trial, eps))
	}
	for trial := 0; trial < trials; trial++ {
		o := randomDAG(t, rng, 3+rng.Intn(15))
		eps := []float64{0.1, 0.3, 1.0}[rng.Intn(3)]
		item := dupItem(rng, o, 1+rng.Intn(16))
		requireIndexMatchesBuild(t, model.Metric{Ont: o, Epsilon: eps}, item,
			randomSchedule(rng, len(item.Reviews)), fmt.Sprintf("dup%d(eps=%.1f)", trial, eps))
	}
}

// TestIndexGraphCatchUp covers the lazy-rebuild contract of
// Index.Graph: a behind index catches up to the snapshot, an ahead
// index refuses (nil) so the caller falls back to a cold build.
func TestIndexGraphCatchUp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	o := randomDAG(t, rng, 8)
	m := model.Metric{Ont: o, Epsilon: 0.3}
	item := randomItem(rng, o, 6)

	idx := NewIndex(m, model.GranularitySentences)
	idx.Merge(item.Reviews[:2])
	// Catch-up from 2 to 6 reviews happens inside Graph.
	got := idx.Graph(item)
	if got == nil {
		t.Fatal("Graph returned nil for a behind index")
	}
	requireGraphsEqual(t, got, Build(m, item, model.GranularitySentences), "catch-up")
	if idx.NumReviews() != len(item.Reviews) {
		t.Fatalf("NumReviews = %d after catch-up, want %d", idx.NumReviews(), len(item.Reviews))
	}

	// A snapshot OLDER than the index cannot be served incrementally.
	stale := &model.Item{ID: item.ID, Reviews: item.Reviews[:3]}
	if g := idx.Graph(stale); g != nil {
		t.Fatal("Graph served a snapshot older than the index")
	}
}

// TestIndexFrozenGraphsImmutable checks that a frozen graph's rows,
// costs and classes are not mutated by later merges (readers may hold
// graphs across appends), at every granularity, on a random corpus and
// on one dense in duplicates, whose later candidates both join the
// frozen graph's classes and open new ones.
func TestIndexFrozenGraphsImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	o := randomDAG(t, rng, 10)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	joined := false
	for i, item := range []*model.Item{randomItem(rng, o, 8), dupItem(rng, o, 12)} {
		half := len(item.Reviews) / 2
		for _, g := range allGranularities {
			lbl := fmt.Sprintf("item%d/%v", i, g)
			idx := NewIndex(m, g)
			idx.Merge(item.Reviews[:half])
			snap := idx.Freeze()
			before := graphEdges(t, snap)
			var sel []int
			if snap.NumCandidates > 0 {
				sel = []int{0}
			}
			costBefore := snap.CostOf(sel)
			numClasses := snap.NumClasses()
			class := append([]int32(nil), snap.class...)
			first := append([]int32(nil), snap.first...)

			idx.Merge(item.Reviews[half:])
			later := idx.Freeze()
			for u := snap.NumCandidates; u < later.NumCandidates; u++ {
				joined = joined || int(later.class[u]) < numClasses
			}

			if got := graphEdges(t, snap); fmt.Sprint(got) != fmt.Sprint(before) {
				t.Fatalf("%s: frozen graph edges changed after a later merge", lbl)
			}
			if got := snap.CostOf(sel); got != costBefore {
				t.Fatalf("%s: frozen graph CostOf changed after a later merge: %v → %v", lbl, costBefore, got)
			}
			if snap.NumClasses() != numClasses || !reflect.DeepEqual(snap.class, class) || !reflect.DeepEqual(snap.first, first) {
				t.Fatalf("%s: frozen graph classes changed after a later merge", lbl)
			}
		}
	}
	if !joined {
		t.Fatal("no later candidate joined a class of a frozen graph")
	}
}

// TestClassKeysHashCollision interns two different target sets with
// equal hashes, found by a birthday search over two-target sets: they
// must get separate classes, and keep them after the slot table grows.
func TestClassKeysHashCollision(t *testing.T) {
	seen := map[uint32][2]int32{}
	var sets [][2]int32
search:
	for hi := int32(1); hi < 1<<12; hi++ {
		for lo := int32(0); lo < hi; lo++ {
			set := [2]int32{lo, hi}
			h := hashKey(set[:])
			if other, ok := seen[h]; ok {
				sets = [][2]int32{other, set}
				break search
			}
			seen[h] = set
		}
	}
	if sets == nil {
		t.Fatal("no two two-target sets below 4096 collide")
	}
	keys := classKeys{start: make([]int32, 1)}
	for want, set := range sets {
		if c, fresh := keys.intern(set[:]); c != int32(want) || !fresh {
			t.Fatalf("first intern of %v = (%d, %v), want (%d, true)", set, c, fresh, want)
		}
	}
	// Three-target sets cannot equal either pair; 64 of them grow the
	// table from 16 slots to 256.
	for w := int32(0); w < 64; w++ {
		keys.intern([]int32{w, w + 1, w + 2})
	}
	for want, set := range sets {
		if c, fresh := keys.intern(set[:]); c != int32(want) || fresh {
			t.Fatalf("intern of %v after growth = (%d, %v), want (%d, false)", set, c, fresh, want)
		}
	}
}

// requireBackwardUntouched asserts a graph has not built its lazy
// backward CSR yet, so the next backward read is its first.
func requireBackwardUntouched(t *testing.T, g *Graph, label string) {
	t.Helper()
	if g.bwdIdx != nil {
		t.Fatalf("%s: graph built its backward CSR before any backward read", label)
	}
}

// TestIndexBackwardFirstTouchAfterMerges reads a frozen graph's
// backward rows for the first time only after later merges have
// extended the index underneath it: the lazily built rows must still be
// those of Build over the older prefix, at every granularity.
func TestIndexBackwardFirstTouchAfterMerges(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 12; trial++ {
		o := randomDAG(t, rng, 3+rng.Intn(15))
		m := model.Metric{Ont: o, Epsilon: []float64{0.1, 0.3, 1.0}[trial%3]}
		item := randomItem(rng, o, 2+rng.Intn(10))
		cut := 1 + rng.Intn(len(item.Reviews)-1)
		prefix := &model.Item{ID: item.ID, Reviews: item.Reviews[:cut]}
		for _, g := range allGranularities {
			lbl := fmt.Sprintf("trial%d/%v/cut%d", trial, g, cut)
			idx := NewIndex(m, g)
			idx.Merge(item.Reviews[:cut])
			old := idx.Freeze()
			for done := cut; done < len(item.Reviews); done++ {
				idx.Merge(item.Reviews[done : done+1])
				idx.Freeze()
			}
			requireBackwardUntouched(t, old, lbl)
			requireGraphsEqual(t, old, Build(m, prefix, g), lbl)
		}
	}
}

// TestIndexBackwardConcurrentFirstTouch races eight readers into the
// lazy backward build of one fresh frozen graph (run it under -race):
// every reader must see Build's rows and Build's costs.
func TestIndexBackwardConcurrentFirstTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	o := randomDAG(t, rng, 20)
	m := model.Metric{Ont: o, Epsilon: 0.3}
	item := randomItem(rng, o, 30)
	for _, g := range allGranularities {
		idx := NewIndex(m, g)
		idx.Merge(item.Reviews[:10])
		idx.Merge(item.Reviews[10:])
		got := idx.Freeze()
		want := Build(m, item, g)
		requireBackwardUntouched(t, got, g.String())
		sel := []int{0, got.NumCandidates / 2, got.NumCandidates - 1}
		wantCost := want.CostOf(sel)

		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for w := range got.Pairs {
					gc, gd := got.CoverersRow(w)
					wc, wd := want.CoverersRow(w)
					if !reflect.DeepEqual(gc, wc) || !reflect.DeepEqual(gd, wd) {
						t.Errorf("%v/reader%d: coverers of pair %d differ", g, r, w)
						return
					}
				}
				if c := got.CostOf(sel); c != wantCost {
					t.Errorf("%v/reader%d: CostOf(%v) = %v, want %v", g, r, sel, c, wantCost)
				}
			}(r)
		}
		wg.Wait()
	}
}

// TestIndexFrozenForwardOnly pins that the forward accessors the greedy
// uses never trigger the lazy backward build, on index-frozen and
// Build graphs alike.
func TestIndexFrozenForwardOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	o := randomDAG(t, rng, 12)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	item := randomItem(rng, o, 10)
	for _, g := range allGranularities {
		idx := NewIndex(m, g)
		idx.Merge(item.Reviews)
		for _, tc := range []struct {
			name  string
			graph *Graph
		}{{"frozen", idx.Freeze()}, {"build", Build(m, item, g)}} {
			for u := 0; u < tc.graph.NumCandidates; u++ {
				tc.graph.CoveredRow(u)
				tc.graph.Degree(u)
			}
			tc.graph.NumEdges()
			tc.graph.InitGains()
			requireBackwardUntouched(t, tc.graph, tc.name+"/"+g.String())
		}
	}
}

var sinkIndex *Index

// TestNewIndexMemoryPerConcept pins an empty index's ontology-sized
// state to one int32 per concept. The runtime accounts for an
// allocation above 32 KiB in whole 8 KiB heap pages, so the bound is
// the slot array's size rounded up to a page, plus 1 KiB for the rest.
func TestNewIndexMemoryPerConcept(t *testing.T) {
	o := randomDAG(t, rand.New(rand.NewSource(5)), 50000)
	m := model.Metric{Ont: o, Epsilon: 0.5}
	const page = 8 << 10
	limit := int64((4*o.Len()+page-1)/page*page + 1024)
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkIndex = NewIndex(m, model.GranularitySentences)
		}
	})
	if got := r.AllocedBytesPerOp(); got > limit {
		t.Fatalf("NewIndex allocates %d B over %d concepts (%.1f B/concept), want <= %d",
			got, o.Len(), float64(got)/float64(o.Len()), limit)
	}
}
