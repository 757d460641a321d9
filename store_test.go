package osars

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"osars/internal/dataset"
	"osars/internal/store"
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

// TestOpenStoreReadsFlatDir pins that a data dir written by a bare
// store.Store, the flat layout of every unsharded data dir, opens
// through OpenStore at the default shard count and at one shard with
// every item, generation and summary, and that opening it renames no
// file and writes no shard manifest.
func TestOpenStoreReadsFlatDir(t *testing.T) {
	s, err := New(Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	flat, err := store.New(store.Config{Runtime: s.rt, Seed: s.seed, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"p1", "p2", "p3", "p4"}
	for i, id := range ids {
		if _, err := flat.AppendReviews(id, "Phone "+id, storeReviews[:1+i%3]); err != nil {
			t.Fatal(err)
		}
	}
	// Some records covered by a snapshot, a generation bump and a
	// delete left in the WAL after it.
	if err := flat.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.AppendReviews("p1", "", []Review{{ID: "r9", Text: "The speaker is too quiet."}}); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.Delete("p4"); err != nil {
		t.Fatal(err)
	}
	summaries := func(st Store) string {
		var out []*Summary
		for _, id := range ids[:3] {
			for _, g := range []Granularity{Pairs, Sentences, Reviews} {
				sum, _, err := st.Summary(id, 2, g, MethodGreedy)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, sum)
			}
		}
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	wantItems, err := json.Marshal(flat.List())
	if err != nil {
		t.Fatal(err)
	}
	wantSums := summaries(flat)
	if err := flat.Close(); err != nil {
		t.Fatal(err)
	}

	names := func() string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range entries {
			out = append(out, e.Name())
		}
		return strings.Join(out, " ")
	}
	for _, shards := range []int{0, 1} {
		before := names()
		st, err := s.OpenStore(StoreOptions{DataDir: dir, Shards: shards})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if after := names(); after != before {
			t.Fatalf("%d shards: opening changed the data dir from %q to %q", shards, before, after)
		}
		gotItems, err := json.Marshal(st.List())
		if err != nil {
			t.Fatal(err)
		}
		if string(gotItems) != string(wantItems) {
			t.Fatalf("%d shards: items\n got %s\nwant %s", shards, gotItems, wantItems)
		}
		if got := summaries(st); got != wantSums {
			t.Fatalf("%d shards: summaries\n got %s\nwant %s", shards, got, wantSums)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(names(), "shard-") {
			t.Fatalf("%d shards: the flat data dir gained shard files: %s", shards, names())
		}
	}
}
