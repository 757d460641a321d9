package store

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osars/internal/dataset"
	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontoreg"
)

func testConfig() Config {
	ont := dataset.CellPhoneOntology()
	return Config{Runtime: ontoreg.ConfigRuntime(
		model.Metric{Ont: ont, Epsilon: 0.5},
		extract.NewPipeline(extract.NewMatcher(ont), nil),
	)}
}

func testStore(t *testing.T) *Store {
	t.Helper()
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

var phoneReviews = []extract.RawReview{
	{ID: "r1", Text: "The screen is excellent. The battery is awful.", Rating: 0.2},
	{ID: "r2", Text: "Amazing screen resolution! The battery life is terrible.", Rating: 0.0},
	{ID: "r3", Text: "Great camera and a decent price.", Rating: 0.8},
	{ID: "r4", Text: "The speaker is too quiet but the design is gorgeous.", Rating: 0.4},
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a config without a runtime")
	}
	ont := dataset.CellPhoneOntology()
	pipe := extract.NewPipeline(extract.NewMatcher(ont), nil)
	if _, err := New(Config{Runtime: ontoreg.ConfigRuntime(model.Metric{Epsilon: 0.5}, pipe)}); err == nil {
		t.Fatal("New accepted a runtime without an ontology")
	}
	if _, err := New(Config{Runtime: ontoreg.ConfigRuntime(model.Metric{Ont: ont, Epsilon: 0.5}, nil)}); err == nil {
		t.Fatal("New accepted a runtime without a pipeline")
	}
}

func TestAppendIncremental(t *testing.T) {
	s := testStore(t)
	st, err := s.AppendReviews("p1", "Acme Phone", phoneReviews[:2])
	if err != nil {
		t.Fatal(err)
	}
	if st.NumReviews != 2 || st.NumPairs == 0 || st.Generation == 0 || st.Name != "Acme Phone" {
		t.Fatalf("first append stats = %+v", st)
	}
	firstGen := st.Generation

	// Capture the published snapshot; a later append must not mutate it.
	snap, gen, ok := s.Item("p1")
	if !ok || gen != firstGen || len(snap.Reviews) != 2 {
		t.Fatalf("Item snapshot = %v gen=%d ok=%v", snap, gen, ok)
	}

	st2, err := s.AppendReviews("p1", "", phoneReviews[2:])
	if err != nil {
		t.Fatal(err)
	}
	if st2.NumReviews != 4 || st2.Generation <= firstGen || st2.Name != "Acme Phone" {
		t.Fatalf("second append stats = %+v", st2)
	}
	if st2.NumPairs <= st.NumPairs || st2.NumSentences <= st.NumSentences {
		t.Fatalf("counts did not grow: %+v -> %+v", st, st2)
	}
	if len(snap.Reviews) != 2 {
		t.Fatalf("old snapshot mutated: %d reviews", len(snap.Reviews))
	}
	now, _, _ := s.Item("p1")
	if len(now.Reviews) != 4 || now.Reviews[3].ID != "r4" {
		t.Fatalf("merged item = %+v", now)
	}
	// The annotations of the first two reviews must be shared, not
	// recomputed: the structs are copied, so compare the sentence text
	// backing content.
	if now.Reviews[0].Sentences[0].Text != snap.Reviews[0].Sentences[0].Text {
		t.Fatal("first review annotation lost across append")
	}
}

func TestAppendValidation(t *testing.T) {
	s := testStore(t)
	if _, err := s.AppendReviews("", "x", phoneReviews); err == nil {
		t.Fatal("empty item id accepted")
	}
}

func TestAppendZeroReviewsAndRename(t *testing.T) {
	s := testStore(t)
	st, err := s.AppendReviews("p1", "Acme", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumReviews != 0 || st.Generation == 0 {
		t.Fatalf("empty create stats = %+v", st)
	}
	st2, _ := s.AppendReviews("p1", "", nil)
	if st2.Generation != st.Generation {
		t.Fatalf("no-op append bumped generation: %d -> %d", st.Generation, st2.Generation)
	}
	st3, _ := s.AppendReviews("p1", "Acme Deluxe", nil)
	if st3.Generation <= st2.Generation || st3.Name != "Acme Deluxe" {
		t.Fatalf("rename stats = %+v", st3)
	}
}

func TestSummaryNotFound(t *testing.T) {
	s := testStore(t)
	if _, _, err := s.Summary("nope", 2, model.GranularitySentences, MethodGreedy); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestSummaryValidation(t *testing.T) {
	s := testStore(t)
	s.AppendReviews("p1", "", phoneReviews)
	if _, _, err := s.Summary("p1", -1, model.GranularitySentences, MethodGreedy); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, _, err := s.Summary("p1", 2, model.Granularity(99), MethodGreedy); err == nil {
		t.Fatal("bad granularity accepted")
	}
	if _, _, err := s.Summary("p1", 2, model.GranularitySentences, Method(99)); err == nil {
		t.Fatal("bad method accepted")
	}
}

func TestSummaryCacheHit(t *testing.T) {
	s := testStore(t)
	s.AppendReviews("p1", "Acme", phoneReviews)
	sum1, cached, err := s.Summary("p1", 2, model.GranularitySentences, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first read reported cached")
	}
	if len(sum1.Sentences) != 2 || sum1.K != 2 || sum1.NumPairs == 0 {
		t.Fatalf("summary = %+v", sum1)
	}
	sum2, cached, err := s.Summary("p1", 2, model.GranularitySentences, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || sum2 != sum1 {
		t.Fatalf("second read: cached=%v same=%v", cached, sum2 == sum1)
	}
	st := s.Stats()
	if st.Solves != 1 || st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Different parameters miss.
	_, cached, err = s.Summary("p1", 3, model.GranularitySentences, MethodGreedy)
	if err != nil || cached {
		t.Fatalf("distinct k: cached=%v err=%v", cached, err)
	}
}

func TestGenerationInvalidatesCache(t *testing.T) {
	s := testStore(t)
	s.AppendReviews("p1", "Acme", phoneReviews[:3])
	sum1, _, err := s.Summary("p1", 100, model.GranularityReviews, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if len(sum1.ReviewIDs) != 3 {
		t.Fatalf("review ids = %v", sum1.ReviewIDs)
	}
	st, _ := s.AppendReviews("p1", "", phoneReviews[3:])
	sum2, cached, err := s.Summary("p1", 100, model.GranularityReviews, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("stale cache served after append")
	}
	if sum2.Generation != st.Generation || len(sum2.ReviewIDs) != 4 {
		t.Fatalf("post-append summary = %+v (want gen %d, 4 reviews)", sum2, st.Generation)
	}
}

func TestSummaryAllMethodsAndGranularities(t *testing.T) {
	s := testStore(t)
	s.AppendReviews("p1", "Acme", phoneReviews)
	for _, g := range []model.Granularity{model.GranularityPairs, model.GranularitySentences, model.GranularityReviews} {
		for _, m := range []Method{MethodGreedy, MethodRR, MethodILP, MethodLocalSearch} {
			sum, _, err := s.Summary("p1", 2, g, m)
			if err != nil {
				t.Fatalf("%v/%v: %v", g, m, err)
			}
			if len(sum.Indices) != 2 || sum.Cost < 0 {
				t.Fatalf("%v/%v: summary = %+v", g, m, sum)
			}
		}
	}
}

func TestDeletePurgesAndRecreates(t *testing.T) {
	s := testStore(t)
	st, _ := s.AppendReviews("p1", "Acme", phoneReviews)
	s.Summary("p1", 2, model.GranularitySentences, MethodGreedy)
	if s.Stats().CacheEntries != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
	if deleted, err := s.Delete("p1"); !deleted || err != nil {
		t.Fatalf("Delete existing item = (%v, %v)", deleted, err)
	}
	if deleted, err := s.Delete("p1"); deleted || err != nil {
		t.Fatalf("Delete missing item = (%v, %v)", deleted, err)
	}
	if _, _, ok := s.Item("p1"); ok {
		t.Fatal("item still present after delete")
	}
	if got := s.Stats().CacheEntries; got != 0 {
		t.Fatalf("cache entries after delete = %d", got)
	}
	// Recreation gets a strictly newer generation: stale keys can never
	// collide.
	st2, _ := s.AppendReviews("p1", "Acme v2", phoneReviews[:1])
	if st2.Generation <= st.Generation {
		t.Fatalf("recreated generation %d not beyond %d", st2.Generation, st.Generation)
	}
	sum, cached, err := s.Summary("p1", 100, model.GranularityReviews, MethodGreedy)
	if err != nil || cached || len(sum.ReviewIDs) != 1 {
		t.Fatalf("post-recreate summary = %+v cached=%v err=%v", sum, cached, err)
	}
}

func TestListAndLen(t *testing.T) {
	s := testStore(t)
	s.AppendReviews("b", "", phoneReviews[:1])
	s.AppendReviews("a", "", phoneReviews[1:2])
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	list := s.List()
	if len(list) != 2 || list[0].ID != "a" || list[1].ID != "b" {
		t.Fatalf("List = %+v", list)
	}
	if _, ok := s.ItemStats("a"); !ok {
		t.Fatal("ItemStats missing for a")
	}
	if _, ok := s.ItemStats("zzz"); ok {
		t.Fatal("ItemStats found phantom item")
	}
}

func TestLRUEntryEviction(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCacheEntries = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendReviews("p1", "", phoneReviews)
	for k := 1; k <= 3; k++ {
		s.Summary("p1", k, model.GranularitySentences, MethodGreedy)
	}
	st := s.Stats()
	if st.CacheEntries != 2 || st.CacheEvictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// k=1 was evicted (LRU), k=3 and k=2 remain.
	if _, cached, _ := s.Summary("p1", 3, model.GranularitySentences, MethodGreedy); !cached {
		t.Fatal("k=3 should be cached")
	}
	if _, cached, _ := s.Summary("p1", 1, model.GranularitySentences, MethodGreedy); cached {
		t.Fatal("k=1 should have been evicted")
	}
}

func TestByteBudgetSkipsOversized(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCacheBytes = 1 // every summary is larger than this
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendReviews("p1", "", phoneReviews)
	for i := 0; i < 3; i++ {
		if _, cached, _ := s.Summary("p1", 2, model.GranularitySentences, MethodGreedy); cached {
			t.Fatal("nothing should be cacheable under a 1-byte budget")
		}
	}
	st := s.Stats()
	if st.CacheEntries != 0 || st.Solves != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestByteBudgetEvicts(t *testing.T) {
	// Measure one entry's approximate size, then budget for ~1.5 of
	// them: inserting a second entry must evict the first.
	probe := testStore(t)
	probe.AppendReviews("p1", "", phoneReviews)
	sum, _, err := probe.Summary("p1", 1, model.GranularityPairs, MethodGreedy)
	if err != nil {
		t.Fatal(err)
	}
	size := summarySize(cacheKey{id: "p1", gen: 1, k: 1, g: model.GranularityPairs, m: MethodGreedy}, sum)

	cfg := testConfig()
	cfg.MaxCacheBytes = size + size/2
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendReviews("p1", "", phoneReviews)
	s.Summary("p1", 1, model.GranularityPairs, MethodGreedy)
	s.Summary("p1", 2, model.GranularityPairs, MethodGreedy)
	st := s.Stats()
	if st.CacheEvictions == 0 {
		t.Fatalf("expected a byte-budget eviction, stats = %+v", st)
	}
	if st.CacheBytes > cfg.MaxCacheBytes {
		t.Fatalf("cache bytes %d exceed budget %d", st.CacheBytes, cfg.MaxCacheBytes)
	}
}

func TestCacheDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.MaxCacheEntries = -1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AppendReviews("p1", "", phoneReviews)
	for i := 0; i < 2; i++ {
		if _, cached, _ := s.Summary("p1", 2, model.GranularitySentences, MethodGreedy); cached {
			t.Fatal("cache disabled but served a cached summary")
		}
	}
	if st := s.Stats(); st.Solves != 2 || st.CacheEntries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFlightGroupDedup drives the singleflight primitive directly:
// the first call blocks inside fn while the others pile up, then all
// ten observe the same value and fn ran far fewer than ten times.
// (Modeled on x/sync/singleflight's own DoDupSuppress test: a strict
// execs==1 would race against goroutine scheduling, so the assertion
// tolerates stragglers that arrive after the flight lands.)
func TestFlightGroupDedup(t *testing.T) {
	var g flightGroup
	key := cacheKey{id: "x", gen: 1, k: 2}
	started := make(chan struct{}, 10)
	release := make(chan struct{})
	var execs atomic.Int64
	want := &Summary{ItemID: "x"}
	fn := func() (*Summary, error) {
		execs.Add(1)
		started <- struct{}{}
		<-release
		return want, nil
	}

	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val, shared, err := g.Do(key, fn)
			if val != want || err != nil {
				t.Errorf("got val=%v err=%v", val, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	<-started                          // one leader is inside fn
	time.Sleep(100 * time.Millisecond) // let the rest pile up on the flight
	close(release)
	wg.Wait()
	if n := execs.Load(); n <= 0 || n >= 10 {
		t.Fatalf("fn executed %d times, want deduplication", n)
	}
	if execs.Load()+sharedCount.Load() != 10 {
		t.Fatalf("execs=%d shared=%d don't account for 10 calls", execs.Load(), sharedCount.Load())
	}
}

// TestConcurrentSummarySingleSolve asserts the store-level guarantee:
// any number of concurrent identical reads cost at most one solve,
// whether they joined the flight or hit the cache afterwards.
func TestConcurrentSummarySingleSolve(t *testing.T) {
	s := testStore(t)
	s.AppendReviews("p1", "", phoneReviews)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum, _, err := s.Summary("p1", 2, model.GranularitySentences, MethodGreedy)
			if err != nil || len(sum.Sentences) != 2 {
				t.Errorf("summary = %+v err = %v", sum, err)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Solves != 1 {
		t.Fatalf("solves = %d, want 1 (stats %+v)", st.Solves, st)
	}
}
