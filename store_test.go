package osars

import (
	"errors"
	"reflect"
	"testing"

	"osars/internal/dataset"
)

func storeFixture(t *testing.T) (*Summarizer, Store) {
	t.Helper()
	s, err := New(Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	return s, s.NewStore(StoreOptions{})
}

var storeReviews = []Review{
	{ID: "r1", Text: "The screen is excellent. The battery is awful."},
	{ID: "r2", Text: "Amazing screen resolution! The battery life is terrible."},
	{ID: "r3", Text: "Great camera and a decent price."},
}

func TestStoreRoundTrip(t *testing.T) {
	_, st := storeFixture(t)
	stats, err := st.AppendReviews("p1", "Acme Phone", storeReviews)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NumReviews != 3 || stats.NumPairs == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	sum, cached, err := st.Summary("p1", 2, Sentences, MethodGreedy)
	if err != nil || cached {
		t.Fatalf("first read: cached=%v err=%v", cached, err)
	}
	if len(sum.Sentences) != 2 || sum.Generation != stats.Generation {
		t.Fatalf("summary = %+v", sum)
	}
	if _, cached, _ = st.Summary("p1", 2, Sentences, MethodGreedy); !cached {
		t.Fatal("second read not cached")
	}
	if _, _, err := st.Summary("zzz", 2, Sentences, MethodGreedy); !errors.Is(err, ErrItemNotFound) {
		t.Fatalf("missing item err = %v", err)
	}
	if deleted, err := st.Delete("p1"); !deleted || err != nil || st.Len() != 0 {
		t.Fatalf("delete = (%v, %v), len = %d", deleted, err, st.Len())
	}
}

// TestStoreMatchesStateless pins the contract that a stored item's
// summary is identical to the stateless path's over the same corpus:
// incremental annotation must not change the result. Greedy summaries
// are equal field for field but the corpus generation, at every
// granularity, on unsharded and sharded stores, including a k past the
// candidate count.
func TestStoreMatchesStateless(t *testing.T) {
	s, err := New(Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	item := s.AnnotateItem("p1", "Acme", storeReviews)
	for _, shards := range []int{1, 2} {
		st := s.NewStore(StoreOptions{Shards: shards})
		// Ingest incrementally in two batches.
		if _, err := st.AppendReviews("p1", "Acme", storeReviews[:1]); err != nil {
			t.Fatal(err)
		}
		if _, err := st.AppendReviews("p1", "", storeReviews[1:]); err != nil {
			t.Fatal(err)
		}
		for _, g := range []Granularity{Pairs, Sentences, Reviews} {
			for _, k := range []int{1, 2, 3, 50} {
				want, err := s.Summarize(item, k, g, MethodGreedy)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := st.Summary("p1", k, g, MethodGreedy)
				if err != nil {
					t.Fatal(err)
				}
				// Field for field but the generation, compared in place:
				// a Summary holds an atomic slot and is not copied.
				if want.Generation != 0 {
					t.Fatalf("shards=%d %v k=%d: stateless generation %d", shards, g, k, want.Generation)
				}
				want.Generation = got.Generation
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d %v k=%d: stored %+v\nstateless %+v", shards, g, k, got, want)
				}
			}
			for _, m := range []Method{MethodILP, MethodLocalSearch} {
				want, err := s.Summarize(item, 2, g, m)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := st.Summary("p1", 2, g, m)
				if err != nil {
					t.Fatal(err)
				}
				if got.Cost != want.Cost {
					t.Fatalf("shards=%d %v/%v: stored cost %v != stateless cost %v", shards, g, m, got.Cost, want.Cost)
				}
				if len(got.Indices) != len(want.Indices) {
					t.Fatalf("shards=%d %v/%v: stored %v != stateless %v", shards, g, m, got.Indices, want.Indices)
				}
			}
		}
	}
}

// TestStoreRejectsUnknownMethod: the stored path validates the method
// like the stateless one, on single-partition and sharded stores.
func TestStoreRejectsUnknownMethod(t *testing.T) {
	s, err := New(Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2} {
		st := s.NewStore(StoreOptions{Shards: shards})
		if _, err := st.AppendReviews("p1", "Acme", storeReviews); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Summary("p1", 2, Sentences, Method(99)); err == nil {
			t.Fatalf("shards=%d: unknown method accepted", shards)
		}
	}
}
