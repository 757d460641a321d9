package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"osars"
	"osars/internal/dataset"
)

// durableServer builds a store-backed server rooted at dir (the
// handler a `osars-serve -data-dir dir` process would run), with the
// given shard count (the handler a `-shards n` process would run).
func durableServer(t *testing.T, dir string, shards int) (*Server, osars.Store) {
	t.Helper()
	sum, err := osars.New(osars.Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := sum.OpenStore(osars.StoreOptions{DataDir: dir, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return NewWithStore(sum, st), st
}

// itemsBody extracts the deterministic part of a GET /v1/items reply:
// the item list, re-marshalled (store counters such as cache hits are
// legitimately reset by a restart and are excluded).
func itemsBody(t *testing.T, srv *Server) string {
	t.Helper()
	w := do(t, srv, http.MethodGet, "/v1/items", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("list status %d: %s", w.Code, w.Body.String())
	}
	var resp ListItemsResponse
	decode(t, w, &resp)
	data, err := json.Marshal(resp.Items)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// summaryBody extracts the deterministic part of a GET summary reply:
// everything except the wall-clock ElapsedMS and the Cached flag
// (a restarted server starts with a cold cache by design).
func summaryBody(t *testing.T, srv *Server, path string) string {
	t.Helper()
	w := do(t, srv, http.MethodGet, path, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("summary %s status %d: %s", path, w.Code, w.Body.String())
	}
	var resp ItemSummaryResponse
	decode(t, w, &resp)
	resp.ElapsedMS = 0
	resp.Cached = false
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestServerRestartByteIdentical is the end-to-end restart acceptance
// test: ingest reviews over HTTP, hard-stop the server (without a
// graceful close), restart against the same data directory, and every
// item listing and summary must come back byte-identical. It runs
// against the single-partition store and a 4-shard store (per-shard
// WAL directories, parallel recovery); both must behave identically.
func TestServerRestartByteIdentical(t *testing.T) {
	t.Run("shards=1", func(t *testing.T) { testRestartByteIdentical(t, 1) })
	t.Run("shards=4", func(t *testing.T) { testRestartByteIdentical(t, 4) })
}

func testRestartByteIdentical(t *testing.T, shards int) {
	dir := t.TempDir()
	srv1, _ := durableServer(t, dir, shards)

	for _, req := range []struct {
		id   string
		body AppendReviewsRequest
	}{
		{"p1", AppendReviewsRequest{ItemName: "Acme Phone", Reviews: []RawReview{
			{ID: "r1", Text: "The screen is excellent. The battery is awful.", Rating: 0.2},
			{ID: "r2", Text: "Amazing screen resolution! The battery life is terrible."},
		}}},
		{"p1", AppendReviewsRequest{Reviews: []RawReview{
			{ID: "r3", Text: "Great camera and a decent price.", Rating: 0.8},
		}}},
		{"p2", AppendReviewsRequest{ItemName: "Bolt", Reviews: []RawReview{
			{ID: "r4", Text: "The speaker is too quiet but the design is gorgeous.", Rating: 0.4},
		}}},
		{"gone", AppendReviewsRequest{ItemName: "Doomed", Reviews: []RawReview{
			{ID: "r5", Text: "The price is outrageous."},
		}}},
	} {
		if w := do(t, srv1, http.MethodPut, "/v1/items/"+req.id+"/reviews", req.body); w.Code != http.StatusOK {
			t.Fatalf("append %s: %d %s", req.id, w.Code, w.Body.String())
		}
	}
	// Summarize (warms the cache) and then delete one item: the
	// restarted server must not resurrect it.
	if w := do(t, srv1, http.MethodGet, "/v1/items/gone/summary?k=1", nil); w.Code != http.StatusOK {
		t.Fatalf("summary gone: %d", w.Code)
	}
	if w := do(t, srv1, http.MethodDelete, "/v1/items/gone", nil); w.Code != http.StatusOK {
		t.Fatalf("delete gone: %d %s", w.Code, w.Body.String())
	}

	paths := []string{
		"/v1/items/p1/summary?k=3",
		"/v1/items/p1/summary?k=2&granularity=pairs",
		"/v1/items/p2/summary?k=1&granularity=reviews",
	}
	wantItems := itemsBody(t, srv1)
	wantSums := make([]string, len(paths))
	for i, p := range paths {
		wantSums[i] = summaryBody(t, srv1, p)
	}
	// Hard stop: the first server's store is simply abandoned —
	// FsyncAlways already put every acknowledged write on disk.

	srv2, st2 := durableServer(t, dir, shards)
	defer st2.Close()
	if rec, ok := st2.Recovery(); !ok || rec.ReplayedRecords == 0 {
		t.Fatalf("restarted store recovery = %+v ok=%v", rec, ok)
	}
	if got := itemsBody(t, srv2); got != wantItems {
		t.Fatalf("GET /v1/items diverged after restart:\npre:  %s\npost: %s", wantItems, got)
	}
	for i, p := range paths {
		if got := summaryBody(t, srv2, p); got != wantSums[i] {
			t.Fatalf("GET %s diverged after restart:\npre:  %s\npost: %s", p, wantSums[i], got)
		}
	}
	if w := do(t, srv2, http.MethodGet, "/v1/items/gone", nil); w.Code != http.StatusNotFound {
		t.Fatalf("deleted item resurrected after restart: %d %s", w.Code, w.Body.String())
	}
	if w := do(t, srv2, http.MethodGet, "/v1/items/gone/summary?k=1", nil); w.Code != http.StatusNotFound {
		t.Fatalf("summary of deleted item after restart: %d %s", w.Code, w.Body.String())
	}
}

// normalizeItems zeros the bookkeeping fields that legitimately
// differ between two SEPARATE ingests of the same corpus: CreatedAt/
// UpdatedAt are wall-clock and Generation is an opaque per-shard
// token (each shard mints its own counter). Everything else — IDs,
// names, ordering, review/sentence/pair counts — must match exactly.
func normalizeItems(t *testing.T, body string) string {
	t.Helper()
	var items []osars.ItemStats
	if err := json.Unmarshal([]byte(body), &items); err != nil {
		t.Fatal(err)
	}
	for i := range items {
		items[i].Generation = 0
		items[i].CreatedAt = time.Time{}
		items[i].UpdatedAt = time.Time{}
	}
	data, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// normalizeSummary zeros the generation of a summary reply (see
// normalizeItems); the selected content and cost must match exactly.
func normalizeSummary(t *testing.T, body string) string {
	t.Helper()
	var resp ItemSummaryResponse
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	resp.Generation = 0
	data, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestShardedMatchesUnshardedOverHTTP ingests the same corpus into an
// unsharded and an 8-shard durable server and pins that listings and
// summaries are identical up to wall-clock timestamps and shard-local
// generation tokens: partitioning must be invisible to clients.
func TestShardedMatchesUnshardedOverHTTP(t *testing.T) {
	flat, flatStore := durableServer(t, t.TempDir(), 1)
	defer flatStore.Close()
	sharded, shardedStore := durableServer(t, t.TempDir(), 8)
	defer shardedStore.Close()

	texts := []string{
		"The screen is excellent. The battery is awful.",
		"Amazing screen resolution! The battery life is terrible.",
		"Great camera and a decent price.",
		"The speaker is too quiet but the design is gorgeous.",
	}
	for i := 0; i < 24; i++ {
		id := "item-" + string(rune('a'+i%7)) + "-" + string(rune('0'+i%3))
		body := AppendReviewsRequest{Reviews: []RawReview{
			{ID: "r" + string(rune('0'+i%10)), Text: texts[i%len(texts)], Rating: float64(i%5) / 4},
		}}
		for _, srv := range []*Server{flat, sharded} {
			if w := do(t, srv, http.MethodPut, "/v1/items/"+id+"/reviews", body); w.Code != http.StatusOK {
				t.Fatalf("append %s: %d %s", id, w.Code, w.Body.String())
			}
		}
	}
	got := normalizeItems(t, itemsBody(t, sharded))
	want := normalizeItems(t, itemsBody(t, flat))
	if got != want {
		t.Fatalf("sharded GET /v1/items diverged from unsharded:\nflat:    %s\nsharded: %s", want, got)
	}
	for _, p := range []string{
		"/v1/items/item-a-0/summary?k=2",
		"/v1/items/item-b-1/summary?k=1&granularity=pairs",
		"/v1/items/item-c-2/summary?k=1&granularity=reviews",
	} {
		got := normalizeSummary(t, summaryBody(t, sharded, p))
		want := normalizeSummary(t, summaryBody(t, flat, p))
		if got != want {
			t.Fatalf("sharded GET %s diverged from unsharded:\nflat:    %s\nsharded: %s", p, want, got)
		}
	}
}

// TestShardLayoutPinned pins that a durable sharded directory refuses
// to reopen with a different shard count, one shard (and the default,
// 0) included: silently rerouting items would make parts of the corpus
// unreachable, and a flat store opened in the root would acknowledge
// writes that the sharded layout never reads.
func TestShardLayoutPinned(t *testing.T) {
	dir := t.TempDir()
	_, st := durableServer(t, dir, 4)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sum, err := osars.New(osars.Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{8, 1, 0} {
		if st, err := sum.OpenStore(osars.StoreOptions{DataDir: dir, Shards: shards}); err == nil {
			st.Close()
			t.Fatalf("reopening a 4-shard data dir with %d shards succeeded; want layout error", shards)
		}
	}
}

// TestOneShardStatsKeys pins GET /v1/stats of a one-shard server,
// durable and in memory, to the keys of a server over a bare
// store.Store, so clients see the same body: one shard reports its
// store's stats, with no shards/per_shard breakdown.
func TestOneShardStatsKeys(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		want string
	}{
		{t.TempDir(), "active_ontology active_ontology_version appends cache_bytes cache_entries cache_evictions cache_hits cache_misses durable index_rebuilds index_warm_fallbacks items solves wal_last_seq wal_segments"},
		{"", "active_ontology active_ontology_version appends cache_bytes cache_entries cache_evictions cache_hits cache_misses index_rebuilds index_warm_fallbacks items solves"},
	} {
		srv, st := durableServer(t, tc.dir, 1)
		body := AppendReviewsRequest{Reviews: []RawReview{{ID: "r1", Text: "The screen is excellent. The battery is awful."}}}
		if w := do(t, srv, http.MethodPut, "/v1/items/p1/reviews", body); w.Code != http.StatusOK {
			t.Fatalf("append: %d %s", w.Code, w.Body.String())
		}
		for i := 0; i < 2; i++ { // a miss, then a hit
			if w := do(t, srv, http.MethodGet, "/v1/items/p1/summary?k=1", nil); w.Code != http.StatusOK {
				t.Fatalf("summary: %d %s", w.Code, w.Body.String())
			}
		}
		var resp map[string]map[string]json.RawMessage
		decode(t, do(t, srv, http.MethodGet, "/v1/stats", nil), &resp)
		if got := strings.Join(sortedKeys(resp), " "); got != "admission ontology store" {
			t.Fatalf("dir %q: /v1/stats keys %q", tc.dir, got)
		}
		if got := strings.Join(sortedKeys(resp["store"]), " "); got != tc.want {
			t.Fatalf("dir %q: /v1/stats store keys\n got %s\nwant %s", tc.dir, got, tc.want)
		}
		st.Close()
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
