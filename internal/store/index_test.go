package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"osars/internal/coverage"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontoreg"
	"osars/internal/summarize"
)

// manyPhoneReviews fabricates n raw reviews by cycling the fixture
// texts with fresh IDs, so appends keep extending the corpus.
func manyPhoneReviews(n int) []extract.RawReview {
	out := make([]extract.RawReview, n)
	for i := range out {
		base := phoneReviews[i%len(phoneReviews)]
		out[i] = extract.RawReview{ID: fmt.Sprintf("m%d", i), Text: base.Text, Rating: base.Rating}
	}
	return out
}

// requireSameSummary compares the solver-determined parts of two
// summaries (selection, cost, content) while ignoring provenance that
// legitimately differs across stores.
func requireSameSummary(t *testing.T, got, want *Summary, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Indices, want.Indices) {
		t.Fatalf("%s: Indices = %v, want %v", label, got.Indices, want.Indices)
	}
	if got.Cost != want.Cost || got.NumPairs != want.NumPairs || got.K != want.K {
		t.Fatalf("%s: cost/pairs/k = (%v,%d,%d), want (%v,%d,%d)",
			label, got.Cost, got.NumPairs, got.K, want.Cost, want.NumPairs, want.K)
	}
	if !reflect.DeepEqual(got.Pairs, want.Pairs) ||
		!reflect.DeepEqual(got.Sentences, want.Sentences) ||
		!reflect.DeepEqual(got.ReviewIDs, want.ReviewIDs) ||
		!reflect.DeepEqual(got.Concepts, want.Concepts) {
		t.Fatalf("%s: summary content diverged:\n got %+v\nwant %+v", label, got, want)
	}
}

// coldSummary is the oracle the indexed store is checked against: a
// from-scratch coverage.Build over the item and the rebuild-everything
// greedy, rendered through the store's own summary code.
func coldSummary(rt *ontoreg.Runtime, item *model.Item, k int, g model.Granularity) *Summary {
	graph := coverage.Build(rt.Metric, item, g)
	k = min(k, graph.NumCandidates)
	return newSummary(rt, item, 0, k, g, MethodGreedy, len(item.Pairs()), summarize.GreedyRebuild(graph, k))
}

// requireRuntimesDiffer checks that raws summarize to different
// selections under v1 and v2, so that a post-swap summary check can
// see an index or a stored selection kept from v1.
func requireRuntimesDiffer(t *testing.T, v1, v2 *ontoreg.Runtime, raws []extract.RawReview, k int, g model.Granularity) {
	t.Helper()
	item := func(rt *ontoreg.Runtime) *model.Item {
		return &model.Item{ID: "p1", Name: "Acme", Reviews: rt.Pipeline.AnnotateReviews(raws, 0)}
	}
	a, b := coldSummary(v1, item(v1), k, g), coldSummary(v2, item(v2), k, g)
	if reflect.DeepEqual(a.Indices, b.Indices) && a.Cost == b.Cost {
		t.Fatalf("the corpus summarizes alike under both runtimes (Indices %v, cost %v): a kept v1 summary would not show", a.Indices, a.Cost)
	}
}

// TestIndexedSummariesMatchCold is the store-level equivalence check:
// with appends interleaved between solves, an indexed store must
// return byte-identical greedy summaries to the cold oracle over the
// same snapshot, at every granularity.
func TestIndexedSummariesMatchCold(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCacheEntries = -1
	warm, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := warm.ActiveRuntime()

	raws := manyPhoneReviews(12)
	grans := []model.Granularity{
		model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
	}
	for i := range raws {
		if _, err := warm.AppendReviews("p1", "Acme", raws[i:i+1]); err != nil {
			t.Fatal(err)
		}
		item, _, _ := warm.Item("p1")
		for _, g := range grans {
			for _, k := range []int{2, 5} {
				sw, _, err := warm.Summary("p1", k, g, MethodGreedy)
				if err != nil {
					t.Fatal(err)
				}
				requireSameSummary(t, sw, coldSummary(rt, item, k, g), fmt.Sprintf("n=%d/%v/k=%d", i+1, g, k))
			}
		}
	}

	st := warm.Stats()
	if st.IndexRebuilds == 0 {
		t.Fatalf("no lazy index rebuild recorded: %+v", st)
	}
	if st.IndexMerges == 0 {
		t.Fatalf("no append-path index merges recorded: %+v", st)
	}
	if st.IndexWarmHits == 0 {
		t.Fatalf("repeated same-k solves over appends never hit warm-start: %+v", st)
	}
}

// coldMethodSummary is coldSummary for the methods that read backward
// rows: the same algorithm, with the given randomized-rounding seed,
// over a from-scratch coverage.Build of the snapshot.
func coldMethodSummary(t *testing.T, rt *ontoreg.Runtime, item *model.Item, k int, g model.Granularity, m Method, seed int64) *Summary {
	t.Helper()
	graph := coverage.Build(rt.Metric, item, g)
	k = min(k, graph.NumCandidates)
	var res *summarize.Result
	var err error
	switch m {
	case MethodRR:
		res, err = summarize.RandomizedRounding(graph, k, rand.New(rand.NewSource(seed)), nil)
	case MethodILP:
		res, err = summarize.ILP(graph, k, nil)
	case MethodLocalSearch:
		res = summarize.LocalSearch(graph, k, nil)
	default:
		t.Fatalf("coldMethodSummary: unsupported method %v", m)
	}
	if err != nil {
		t.Fatal(err)
	}
	return newSummary(rt, item, 0, k, g, m, len(item.Pairs()), res)
}

// TestIndexedBackwardMethodsMatchCold extends the store-level
// equivalence check to the methods that read backward rows (RR, ILP,
// local search), which make an index-frozen graph build its backward
// CSR lazily: with appends interleaved between solves, each indexed
// summary must equal the same algorithm over Build of the snapshot.
func TestIndexedBackwardMethodsMatchCold(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCacheEntries = -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt := s.ActiveRuntime()

	raws := manyPhoneReviews(8)
	grans := []model.Granularity{
		model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
	}
	for i := range raws {
		if _, err := s.AppendReviews("p1", "Acme", raws[i:i+1]); err != nil {
			t.Fatal(err)
		}
		item, _, _ := s.Item("p1")
		for _, g := range grans {
			for _, m := range []Method{MethodRR, MethodILP, MethodLocalSearch} {
				for _, k := range []int{2, 5} {
					got, _, err := s.Summary("p1", k, g, m)
					if err != nil {
						t.Fatal(err)
					}
					requireSameSummary(t, got, coldMethodSummary(t, rt, item, k, g, m, s.seed),
						fmt.Sprintf("n=%d/%v/%v/k=%d", i+1, g, m, k))
				}
			}
		}
	}
	if st := s.Stats(); st.IndexMerges == 0 || st.IndexRebuilds == 0 {
		t.Fatalf("solves did not go through the index: %+v", st)
	}
}

// TestIndexInvalidatedOnOntologySwap: a hot swap re-annotates the
// corpus lazily, so the index built over the old annotations must be
// discarded with them — the post-swap summary must equal what a fresh
// store under the new runtime computes.
func TestIndexInvalidatedOnOntologySwap(t *testing.T) {
	v1 := phoneRuntime(t, 0.5)
	v2 := phoneRuntime(t, 0.9)
	s, err := New(Config{Runtime: v1, MaxCacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	raws := gradedPhoneReviews(8)
	requireRuntimesDiffer(t, v1, v2, raws, 3, model.GranularitySentences)
	if _, err := s.AppendReviews("p1", "Acme", raws); err != nil {
		t.Fatal(err)
	}
	// Build and use the v1 index.
	if _, _, err := s.Summary("p1", 3, model.GranularitySentences, MethodGreedy); err != nil {
		t.Fatal(err)
	}
	rebuildsBefore := s.Stats().IndexRebuilds

	if err := s.ActivateOntology(v2); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Summary("p1", 3, model.GranularitySentences, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}

	fresh := &model.Item{ID: "p1", Name: "Acme", Reviews: v2.Pipeline.AnnotateReviews(raws, 0)}
	requireSameSummary(t, got, coldSummary(v2, fresh, 3, model.GranularitySentences), "post-swap")
	if got.OntologyVersion != v2.Version {
		t.Fatalf("post-swap summary version = %q, want %q", got.OntologyVersion, v2.Version)
	}
	if after := s.Stats().IndexRebuilds; after <= rebuildsBefore {
		t.Fatalf("swap did not force an index rebuild: before=%d after=%d", rebuildsBefore, after)
	}
}

// TestIndexLazyRebuildAfterRecovery: indexes are never persisted, so a
// store recovered from disk must rebuild them lazily at first solve —
// and the recovered indexed summary must match the pre-crash one.
func TestIndexLazyRebuildAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.MaxCacheEntries = -1
	cfg.DataDir = dir
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p1", "Acme", manyPhoneReviews(8)); err != nil {
		t.Fatal(err)
	}
	want, _, err := s.Summary("p1", 3, model.GranularityPairs, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _, err := s2.Summary("p1", 3, model.GranularityPairs, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	requireSameSummary(t, got, want, "recovered")
	if st := s2.Stats(); st.IndexRebuilds == 0 {
		t.Fatalf("recovered store solved without a lazy index rebuild: %+v", st)
	}
}

// TestReannotationRaceInvalidatesIndex drives the itemAt optimistic
// retry branch against a concurrent append (run it under -race): the
// solve blocks after re-annotating a stale snapshot, an append bumps
// the generation underneath, and the publish must retry against the
// new corpus — with the final summary identical to a cold solve over
// the full post-append corpus.
func TestReannotationRaceInvalidatesIndex(t *testing.T) {
	v1 := phoneRuntime(t, 0.5)
	v2 := phoneRuntime(t, 0.9)
	s, err := New(Config{Runtime: v1, MaxCacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	raws := gradedPhoneReviews(6)
	requireRuntimesDiffer(t, v1, v2, raws, 2, model.GranularitySentences)
	if _, err := s.AppendReviews("p1", "Acme", raws[:4]); err != nil {
		t.Fatal(err)
	}
	// Warm the v1 index so the swap has something to invalidate.
	if _, _, err := s.Summary("p1", 2, model.GranularitySentences, MethodGreedy); err != nil {
		t.Fatal(err)
	}
	if err := s.ActivateOntology(v2); err != nil {
		t.Fatal(err)
	}

	// First post-swap solve re-annotates. The hook fires between the
	// off-lock annotation and the optimistic publish; racing an append
	// through that window forces the e2.gen != gen retry.
	appended := make(chan struct{})
	var once sync.Once
	s.testAnnotateHook = func(id string) {
		once.Do(func() {
			if _, err := s.AppendReviews("p1", "", raws[4:]); err != nil {
				t.Error(err)
			}
			close(appended)
		})
	}
	got, _, err := s.Summary("p1", 2, model.GranularitySentences, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	<-appended
	s.testAnnotateHook = nil

	// The retried solve must have seen the full six-review corpus under
	// v2 annotations.
	fresh := &model.Item{ID: "p1", Name: "Acme", Reviews: v2.Pipeline.AnnotateReviews(raws, 0)}
	requireSameSummary(t, got, coldSummary(v2, fresh, 2, model.GranularitySentences), "raced re-annotation")

	// And the store stays coherent afterwards: further appends + indexed
	// solves still match cold.
	if _, err := s.AppendReviews("p1", "", manyPhoneReviews(2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Summary("p1", 2, model.GranularitySentences, MethodGreedy); err != nil {
		t.Fatal(err)
	}
}

// TestNewSummaryRendersSelection checks the one renderer, which walks
// the reviews to the selected units, against the flattened corpus:
// pairs and their concept names, sentence texts and review IDs, in
// selection order, for random unsorted selections of every size at
// every granularity. Every field of the Summary is compared.
func TestNewSummaryRendersSelection(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendReviews("p1", "Acme", manyPhoneReviews(9)); err != nil {
		t.Fatal(err)
	}
	item, _, _ := s.Item("p1")
	rt := s.ActiveRuntime()
	pairs := item.Pairs()
	if item.NumPairs() != len(pairs) {
		t.Fatalf("NumPairs = %d, len(Pairs()) = %d", item.NumPairs(), len(pairs))
	}
	var texts []string
	for ri := range item.Reviews {
		for si := range item.Reviews[ri].Sentences {
			texts = append(texts, item.Reviews[ri].Sentences[si].Text)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, g := range []model.Granularity{
		model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
	} {
		n := map[model.Granularity]int{
			model.GranularityPairs:     len(pairs),
			model.GranularitySentences: len(texts),
			model.GranularityReviews:   len(item.Reviews),
		}[g]
		for trial := 0; trial < 20; trial++ {
			sel := rng.Perm(n)[:rng.Intn(n+1)]
			want := &Summary{
				ItemID: "p1", Generation: 3, K: len(sel), Granularity: g, Method: MethodILP,
				Cost: 7, NumPairs: len(pairs), Indices: sel,
				Ontology: rt.Name, OntologyVersion: rt.Version,
			}
			for _, u := range sel {
				switch g {
				case model.GranularityPairs:
					want.Pairs = append(want.Pairs, pairs[u])
					// Concepts[i] is the solving ontology's name for Pairs[i].
					want.Concepts = append(want.Concepts, rt.Metric.Ont.Name(pairs[u].Concept))
				case model.GranularitySentences:
					want.Sentences = append(want.Sentences, texts[u])
				case model.GranularityReviews:
					want.ReviewIDs = append(want.ReviewIDs, item.Reviews[u].ID)
				}
			}
			got := newSummary(rt, item, 3, len(sel), g, MethodILP, len(pairs), &summarize.Result{Selected: sel, Cost: 7})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v trial %d: rendered %+v, want %+v", g, trial, got, want)
			}
		}
	}
}
