package store

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"osars/internal/extract"
	"osars/internal/model"
	"osars/internal/ontoreg"
)

// cloneItem deep-copies an item's arrays, keeping nil and empty slices
// apart as they were.
func cloneItem(it *model.Item) *model.Item {
	c := *it
	c.Reviews = slices.Clone(it.Reviews)
	for i := range c.Reviews {
		r := &c.Reviews[i]
		r.Sentences = slices.Clone(r.Sentences)
		for j := range r.Sentences {
			r.Sentences[j].Pairs = slices.Clone(r.Sentences[j].Pairs)
		}
	}
	return &c
}

// entryView returns the item and the raw reviews the entry of id
// holds, as a reader takes them under s.mu.
func entryView(s *Store, id string) (*model.Item, []extract.RawReview) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e := s.items[id]
	return e.item, e.raws
}

// numbered returns n phone reviews with IDs unique under prefix.
func numbered(prefix string, n int) []extract.RawReview {
	out := make([]extract.RawReview, n)
	for i := range out {
		out[i] = phoneReviews[i%len(phoneReviews)]
		out[i].ID = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

// checkCapped fails unless the item the store returns for id has
// cap(Reviews) == len(Reviews), from Item and from the summary path.
func checkCapped(t *testing.T, s *Store, id, when string) {
	t.Helper()
	it, _, ok := s.Item(id)
	if !ok {
		t.Fatalf("%s: %s missing", when, id)
	}
	solved, _, _, err := s.itemAt(s.rt.Load(), id)
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []*model.Item{it, solved} {
		if cap(got.Reviews) != len(got.Reviews) {
			t.Fatalf("%s: %s has %d reviews in a slice of capacity %d", when, id, len(got.Reviews), cap(got.Reviews))
		}
	}
}

// TestGrowthItemsCapped: every Item the store returns is capped at its
// length, on each path that publishes one: a first append, appends
// that grow in place, a rename, a re-annotation, a snapshot restore
// and a replay.
func TestGrowthItemsCapped(t *testing.T) {
	v1, v2 := phoneRuntime(t, 0.5), phoneRuntime(t, 0.9)
	dir := t.TempDir()
	open := func() *Store {
		s, err := New(Config{Runtime: v1, DataDir: dir, SnapshotEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	for i, rv := range numbered("r", 9) {
		if _, err := s.AppendReviews("p1", "Acme", []extract.RawReview{rv}); err != nil {
			t.Fatal(err)
		}
		checkCapped(t, s, "p1", fmt.Sprintf("append %d", i))
	}
	if _, err := s.AppendReviews("p1", "Acme 2", nil); err != nil {
		t.Fatal(err)
	}
	checkCapped(t, s, "p1", "rename")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = open()
	checkCapped(t, s, "p1", "snapshot restore")
	if _, err := s.AppendReviews("p1", "", numbered("after-restore", 2)); err != nil {
		t.Fatal(err)
	}
	checkCapped(t, s, "p1", "append after restore")
	// Abandon the store: the next open replays the append.
	s = open()
	checkCapped(t, s, "p1", "replay")
	if err := s.ActivateOntology(v2); err != nil {
		t.Fatal(err)
	}
	checkCapped(t, s, "p1", "re-annotation")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGrowthAppendToReturnedItem: appending to a returned item's
// Reviews gets the caller a new array, so neither the caller's slice
// nor the store's corpus sees the other's append.
func TestGrowthAppendToReturnedItem(t *testing.T) {
	s := testStore(t)
	if _, err := s.AppendReviews("p1", "Acme", numbered("r", 3)); err != nil {
		t.Fatal(err)
	}
	it, _, _ := s.Item("p1")
	n := len(it.Reviews)
	mine := append(it.Reviews, model.Review{ID: "mine"})
	if _, err := s.AppendReviews("p1", "", numbered("next", 1)); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Item("p1")
	if len(got.Reviews) != n+1 || got.Reviews[n].ID != "next-0" {
		t.Fatalf("store holds %d reviews ending in %q, want %d ending in next-0", len(got.Reviews), got.Reviews[len(got.Reviews)-1].ID, n+1)
	}
	if mine[n].ID != "mine" {
		t.Fatalf("the caller's appended review reads %q, want mine", mine[n].ID)
	}
}

// TestGrowthHeldItemsStayPut: items and raw reviews held before later
// appends read back equal to deep copies taken when they were held,
// while appends, summaries and snapshots run concurrently. Under
// -race, a write into a slot a reader can see is also reported.
func TestGrowthHeldItemsStayPut(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.Fsync = FsyncNever
	cfg.SnapshotEvery = 7
	s := openDurable(t, cfg)
	defer s.Close()
	if _, err := s.AppendReviews("p1", "Acme", numbered("seed", 2)); err != nil {
		t.Fatal(err)
	}

	type held struct {
		item, itemCopy *model.Item
		raws, rawsCopy []extract.RawReview
	}
	var helds []held
	var stop atomic.Bool
	var wg sync.WaitGroup
	walk := func(it *model.Item) (n int) {
		for _, r := range it.Reviews {
			for _, sen := range r.Sentences {
				n += len(sen.Text) + len(sen.Pairs)
			}
		}
		return n
	}
	for _, g := range []model.Granularity{model.GranularityPairs, model.GranularitySentences, model.GranularityReviews} {
		wg.Add(1)
		go func(g model.Granularity) {
			defer wg.Done()
			for !stop.Load() {
				if _, _, err := s.Summary("p1", 3, g, MethodGreedy); err != nil {
					t.Error(err)
					return
				}
				it, raws := entryView(s, "p1")
				walk(it)
				for _, r := range raws {
					_ = len(r.Text) + len(r.ID)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := s.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 40; i++ {
		if _, err := s.AppendReviews("p1", "", numbered(fmt.Sprintf("a%d", i), 1+i%3)); err != nil {
			t.Fatal(err)
		}
		it, raws := entryView(s, "p1")
		helds = append(helds, held{it, cloneItem(it), raws, slices.Clone(raws)})
	}
	stop.Store(true)
	wg.Wait()
	for i, h := range helds {
		if !reflect.DeepEqual(h.item, h.itemCopy) {
			t.Fatalf("item held after append %d changed under later appends", i)
		}
		if !reflect.DeepEqual(h.raws, h.rawsCopy) {
			t.Fatalf("raws held after append %d changed under later appends", i)
		}
	}
}

// TestGrowthMatchesColdRebuild: appends that grow an array a
// re-annotation or a snapshot restore started leave the same corpus,
// raw reviews and summaries as one cold append of every review.
func TestGrowthMatchesColdRebuild(t *testing.T) {
	v1, v2 := phoneRuntime(t, 0.5), phoneRuntime(t, 0.9)
	first, second := numbered("first", 5), numbered("second", 6)
	state := func(s *Store) (*model.Item, []extract.RawReview, []*Summary) {
		t.Helper()
		it, raws := entryView(s, "p1")
		var sums []*Summary
		for _, g := range []model.Granularity{model.GranularityPairs, model.GranularitySentences, model.GranularityReviews} {
			sum, _, err := s.Summary("p1", 3, g, MethodGreedy)
			if err != nil {
				t.Fatal(err)
			}
			sums = append(sums, sum)
		}
		return it, raws, sums
	}
	compare := func(s *Store, rt *ontoreg.Runtime) {
		t.Helper()
		cold, err := New(Config{Runtime: rt})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cold.AppendReviews("p1", "Acme", append(slices.Clone(first), second...)); err != nil {
			t.Fatal(err)
		}
		it, raws, sums := state(s)
		wantIt, wantRaws, wantSums := state(cold)
		if !reflect.DeepEqual(it, wantIt) {
			t.Fatal("corpus differs from a cold rebuild")
		}
		if !reflect.DeepEqual(raws, wantRaws) {
			t.Fatal("raw reviews differ from a cold rebuild")
		}
		for i := range sums {
			if !slices.Equal(sums[i].Indices, wantSums[i].Indices) || sums[i].Cost != wantSums[i].Cost {
				t.Fatalf("summary %v = %v at %v, cold rebuild %v at %v",
					sums[i].Granularity, sums[i].Indices, sums[i].Cost, wantSums[i].Indices, wantSums[i].Cost)
			}
		}
	}

	t.Run("after re-annotation", func(t *testing.T) {
		s, err := New(Config{Runtime: v1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendReviews("p1", "Acme", first); err != nil {
			t.Fatal(err)
		}
		if err := s.ActivateOntology(v2); err != nil {
			t.Fatal(err)
		}
		state(s) // the summaries re-annotate under v2
		for i := range second {
			if _, err := s.AppendReviews("p1", "", second[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
		compare(s, v2)
	})
	t.Run("after snapshot restore", func(t *testing.T) {
		dir := t.TempDir()
		s, err := New(Config{Runtime: v1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendReviews("p1", "Acme", first); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = New(Config{Runtime: v1, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for i := range second {
			if _, err := s.AppendReviews("p1", "", second[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
		compare(s, v1)
	})
}
