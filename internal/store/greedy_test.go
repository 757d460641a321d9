package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"osars/internal/extract"
	"osars/internal/model"
)

var granularities = []model.Granularity{
	model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
}

// gradedPhoneReviews fabricates n raw reviews of two sentences that
// rate varying phone aspects with varying strength, so the summaries
// depend on ε and the runtimes of phoneRuntime(0.5) and
// phoneRuntime(0.9) solve to different selections.
func gradedPhoneReviews(n int) []extract.RawReview {
	aspects := []string{"screen", "battery", "camera", "speaker", "price", "design", "screen resolution", "battery life"}
	adjs := []string{"excellent", "good", "decent", "poor", "awful", "terrible", "amazing", "okay"}
	out := make([]extract.RawReview, n)
	for i := range out {
		out[i] = extract.RawReview{
			ID:   fmt.Sprintf("g%d", i),
			Text: fmt.Sprintf("The %s is %s. The %s is %s.", aspects[i%8], adjs[i*3%8], aspects[(i*5+1)%8], adjs[(i*7+2)%8]),
		}
	}
	return out
}

// requireGreedyMatchesSolve asks s for the greedy summary of id at (k,
// g) and checks it, field for field, against the stateless Solve over
// the snapshot the store holds afterwards (the summary's generation,
// annotated under the active runtime).
func requireGreedyMatchesSolve(t *testing.T, s *Store, id string, k int, g model.Granularity, label string) *Summary {
	t.Helper()
	got, _, err := s.Summary(id, k, g, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	item, gen, ok := s.Item(id)
	if !ok || gen != got.Generation {
		t.Fatalf("%s: summary of generation %d, store at %d (ok=%v)", label, got.Generation, gen, ok)
	}
	rt := s.ActiveRuntime()
	want, err := Solve(rt, item, k, g, MethodGreedy, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSummary(t, got, want, label)
	if got.OntologyVersion != rt.Version {
		t.Fatalf("%s: summary under version %q, active %q", label, got.OntologyVersion, rt.Version)
	}
	return got
}

// must returns v, panicking on err.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// greedyRuns is how many greedy selections the store ran: the warm
// counters count exactly those, and a summary rendered from a stored
// selection counts a solve but neither of them.
func greedyRuns(s *Store) uint64 {
	st := s.Stats()
	return st.IndexWarmHits + st.IndexWarmFallbacks
}

// TestStoredGreedyMatchesStateless requests greedy summaries of one
// item at every granularity with k in a seeded random order (repeats,
// 0, and k above |U|), with the summary cache on and off, across
// appends, a rename, an ontology activation and its rollback, and a
// delete-then-recreate of the same ID. Every summary, whether a greedy
// run or the prefix of a stored selection, must equal the stateless
// Solve over the same snapshot.
func TestStoredGreedyMatchesStateless(t *testing.T) {
	v1, v2 := phoneRuntime(t, 0.5), phoneRuntime(t, 0.9)
	raws := gradedPhoneReviews(12)
	for _, entries := range []int{DefaultMaxCacheEntries, -1} {
		s, err := New(Config{Runtime: v1, MaxCacheEntries: entries})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(100 + entries)))
		requests := func(phase string) {
			item, _, _ := s.Item("p1")
			top := item.NumPairs() + 2
			for _, g := range granularities {
				ks := rng.Perm(top + 1)
				for i := 0; i < 8; i++ {
					ks = append(ks, ks[rng.Intn(len(ks))])
				}
				rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
				for _, k := range ks {
					requireGreedyMatchesSolve(t, s, "p1", k, g, fmt.Sprintf("cache %d/%s/%v/k=%d", entries, phase, g, k))
				}
			}
		}
		appendRaws := func(from, to int, name string) {
			if _, err := s.AppendReviews("p1", name, raws[from:to]); err != nil {
				t.Fatal(err)
			}
		}

		appendRaws(0, 4, "Acme")
		requests("created")
		appendRaws(4, 5, "")
		requests("appended one")
		appendRaws(5, 8, "")
		requests("appended three")
		appendRaws(8, 8, "Acme 2")
		requests("renamed")
		if err := s.ActivateOntology(v2); err != nil {
			t.Fatal(err)
		}
		requests("activated")
		if err := s.ActivateOntology(v1); err != nil {
			t.Fatal(err)
		}
		requests("rolled back")
		if _, err := s.Delete("p1"); err != nil {
			t.Fatal(err)
		}
		appendRaws(8, 12, "Acme")
		requests("recreated")

		st := s.Stats()
		if rendered := st.Solves - greedyRuns(s); rendered == 0 {
			t.Fatalf("cache %d: no summary was rendered from a stored selection: %+v", entries, st)
		}
	}
}

// TestStoredGreedyOneSelectionPerGranularity pins the bound: after
// greedy requests for every k from 1 to |U| in ascending order (each a
// greedy run, since the stored selection is always shorter), an entry
// holds exactly one selection per granularity, of |U| picks at the
// current generation; then every k from |U|+5 down to 0 renders a
// prefix of it without running the greedy.
func TestStoredGreedyOneSelectionPerGranularity(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCacheEntries = -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p1", "Acme", gradedPhoneReviews(9)); err != nil {
		t.Fatal(err)
	}
	_, gen, _ := s.Item("p1")
	for _, g := range granularities {
		item, _, _ := s.Item("p1")
		n := must(Solve(s.ActiveRuntime(), item, item.NumPairs(), g, MethodGreedy, 1)).K
		runs := greedyRuns(s)
		for k := 1; k <= n; k++ {
			requireGreedyMatchesSolve(t, s, "p1", k, g, fmt.Sprintf("%v/ascending k=%d", g, k))
		}
		if got := greedyRuns(s) - runs; got != uint64(n) {
			t.Fatalf("%v: %d greedy runs for k = 1..%d, want %d", g, got, n, n)
		}

		s.mu.RLock()
		stored := s.items["p1"].greedy[g]
		s.mu.RUnlock()
		if stored.res == nil || stored.gen != gen || stored.n != n || len(stored.res.Selected) != n {
			t.Fatalf("%v: stored selection %+v, want %d picks at generation %d", g, stored, n, gen)
		}

		runs, solves := greedyRuns(s), s.Stats().Solves
		for k := n + 5; k >= 0; k-- {
			requireGreedyMatchesSolve(t, s, "p1", k, g, fmt.Sprintf("%v/descending k=%d", g, k))
		}
		if got := greedyRuns(s) - runs; got != 0 {
			t.Fatalf("%v: %d greedy runs for prefixes of a stored selection, want 0", g, got)
		}
		if got := s.Stats().Solves - solves; got != uint64(n+6) {
			t.Fatalf("%v: %d solves counted for %d rendered prefixes", g, got, n+6)
		}
	}
}

// TestStoredGreedyOtherMethodsSolve: a stored greedy selection answers
// greedy requests only. RR, ILP and local search at a smaller k after
// a greedy solve at |U| run their own algorithm, equal to it over a
// cold Build of the snapshot, and run no greedy selection.
func TestStoredGreedyOtherMethodsSolve(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCacheEntries = -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p1", "Acme", gradedPhoneReviews(6)); err != nil {
		t.Fatal(err)
	}
	item, _, _ := s.Item("p1")
	rt := s.ActiveRuntime()
	for _, g := range granularities {
		requireGreedyMatchesSolve(t, s, "p1", item.NumPairs(), g, fmt.Sprintf("%v/greedy", g))
		runs := greedyRuns(s)
		for _, m := range []Method{MethodRR, MethodILP, MethodLocalSearch} {
			for _, k := range []int{1, 2, 3} {
				got, _, err := s.Summary("p1", k, g, m)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%v/%v/k=%d", g, m, k)
				if got.Method != m {
					t.Fatalf("%s: summary method %v", label, got.Method)
				}
				requireSameSummary(t, got, coldMethodSummary(t, rt, item, k, g, m, 1), label)
			}
		}
		if got := greedyRuns(s) - runs; got != 0 {
			t.Fatalf("%v: other methods counted %d greedy runs", g, got)
		}
	}
}

// TestStoredGreedyConcurrentAppends runs greedy readers at k ∈ 1..10
// against one appender on the same item (run it under -race), with the
// summary cache on and off. Each summary must equal the stateless
// Solve over the snapshot of the generation it reports.
func TestStoredGreedyConcurrentAppends(t *testing.T) {
	raws := gradedPhoneReviews(40)
	for _, entries := range []int{DefaultMaxCacheEntries, -1} {
		cfg := testConfig()
		cfg.MaxCacheEntries = entries
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		snaps := map[uint64]*model.Item{}
		appendOne := func(i int) {
			st, err := s.AppendReviews("p1", "Acme", raws[i:i+1])
			if err != nil {
				t.Error(err)
				return
			}
			// The appender is the only writer, so the item is still at
			// the generation its append produced.
			item, gen, _ := s.Item("p1")
			if gen != st.Generation {
				t.Errorf("item at generation %d after an append to %d", gen, st.Generation)
			}
			mu.Lock()
			snaps[gen] = item
			mu.Unlock()
		}
		appendOne(0)

		type read struct {
			k   int
			g   model.Granularity
			sum *Summary
		}
		const readers, reads = 4, 150
		results := make([][]read, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for i := 0; i < reads; i++ {
					k, g := 1+rng.Intn(10), granularities[rng.Intn(len(granularities))]
					sum, _, err := s.Summary("p1", k, g, MethodGreedy)
					if err != nil {
						t.Error(err)
						return
					}
					results[r] = append(results[r], read{k, g, sum})
				}
			}(r)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i < len(raws); i++ {
				appendOne(i)
			}
		}()
		wg.Wait()

		rt := s.ActiveRuntime()
		for r, rs := range results {
			for i, rd := range rs {
				item := snaps[rd.sum.Generation]
				if item == nil {
					t.Fatalf("reader %d read %d: unknown generation %d", r, i, rd.sum.Generation)
				}
				want := must(Solve(rt, item, rd.k, rd.g, MethodGreedy, 1))
				requireSameSummary(t, rd.sum, want, fmt.Sprintf("cache %d/reader %d/read %d/%v/k=%d/gen %d", entries, r, i, rd.g, rd.k, rd.sum.Generation))
			}
		}
	}
}
