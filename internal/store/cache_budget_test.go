package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"osars/internal/extract"
	"osars/internal/model"
)

// TestCacheByteBudgetConcurrent exercises the LRU's BYTE budget (not
// just the entry budget) under concurrent append + summarize traffic.
// The entry budget is set far above what the workload can produce, so
// every eviction on this run is byte-budget-driven; the test asserts
// the byte invariant continuously from racing observer goroutines and
// is designed to run under -race (the CI runs this package with the
// detector on).
func TestCacheByteBudgetConcurrent(t *testing.T) {
	const maxBytes = 4 << 10 // 4 KiB: a handful of summaries at most
	cfg := testConfig()
	cfg.MaxCacheEntries = 1 << 20 // entry budget can never bind
	cfg.MaxCacheBytes = maxBytes
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	items := []string{"a", "b", "c", "d"}
	texts := []string{
		"The screen is excellent and the resolution is amazing.",
		"The battery is awful. The battery life is terrible.",
		"Great camera and a decent price. The speaker is too quiet.",
		"The design is gorgeous but the price is outrageous.",
	}
	grans := []model.Granularity{
		model.GranularityPairs, model.GranularitySentences, model.GranularityReviews,
	}

	// Every item exists before the readers start, so their summaries
	// solve and fill the cache however the goroutines are scheduled.
	for i, id := range items {
		if _, err := s.AppendReviews(id, "", []extract.RawReview{{ID: fmt.Sprintf("seed-%d", i), Text: texts[i]}}); err != nil {
			t.Fatal(err)
		}
	}

	const (
		writers = 3
		readers = 6
		iters   = 40
	)
	var wg, owg sync.WaitGroup
	var stop atomic.Bool

	// Byte-budget observers: the invariant must hold at every instant,
	// not just at the end.
	for o := 0; o < 2; o++ {
		owg.Add(1)
		go func() {
			defer owg.Done()
			for !stop.Load() {
				if got := s.cache.Bytes(); got > maxBytes {
					t.Errorf("cache bytes %d exceed budget %d", got, maxBytes)
					return
				}
			}
		}()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				id := items[rng.Intn(len(items))]
				if _, err := s.AppendReviews(id, "", []extract.RawReview{{
					ID:   fmt.Sprintf("w%d-%d", seed, i),
					Text: texts[rng.Intn(len(texts))],
				}}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(int64(w + 1))
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < iters; i++ {
				// Varying k and granularity fans the key space out so
				// the byte budget actually has to evict.
				_, _, err := s.Summary(items[rng.Intn(len(items))],
					1+rng.Intn(6), grans[rng.Intn(len(grans))], MethodGreedy)
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("summary: %v", err)
					return
				}
			}
		}(int64(r + 1))
	}

	wg.Wait()
	stop.Store(true)
	owg.Wait()

	st := s.Stats()
	if st.CacheBytes > maxBytes {
		t.Fatalf("final cache bytes %d exceed budget %d", st.CacheBytes, maxBytes)
	}
	if st.CacheEvictions == 0 {
		t.Fatalf("byte budget never evicted (bytes=%d, entries=%d) — budget path not exercised",
			st.CacheBytes, st.CacheEntries)
	}
	if st.CacheEntries == 0 && st.Solves > 0 {
		t.Fatalf("cache ended empty after %d solves", st.Solves)
	}
}
