package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"osars"
	"osars/internal/dataset"
)

// do issues one request with an optional JSON body.
func do(t *testing.T, srv http.Handler, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var rdr *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rdr = bytes.NewReader(data)
	} else {
		rdr = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rdr)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func decode(t *testing.T, w *httptest.ResponseRecorder, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decode %q: %v", w.Body.String(), err)
	}
}

func TestItemLifecycle(t *testing.T) {
	srv := testServer(t)

	// 1. Append two reviews (creates the item).
	w := do(t, srv, http.MethodPut, "/v1/items/p1/reviews", AppendReviewsRequest{
		ItemName: "Acme Phone",
		Reviews: []RawReview{
			{ID: "r1", Text: "The screen is excellent. The battery is awful."},
			{ID: "r2", Text: "Amazing screen resolution! The battery life is terrible."},
		},
	})
	if w.Code != http.StatusOK {
		t.Fatalf("append status %d: %s", w.Code, w.Body.String())
	}
	var stats osars.ItemStats
	decode(t, w, &stats)
	if stats.ID != "p1" || stats.NumReviews != 2 || stats.NumPairs == 0 || stats.Generation == 0 {
		t.Fatalf("append stats = %+v", stats)
	}

	// 2. First summary read: solved, not cached.
	w = do(t, srv, http.MethodGet, "/v1/items/p1/summary?k=2", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("summary status %d: %s", w.Code, w.Body.String())
	}
	var sum ItemSummaryResponse
	decode(t, w, &sum)
	if sum.Cached || sum.Generation != stats.Generation || len(sum.Sentences) != 2 {
		t.Fatalf("first summary = %+v", sum)
	}

	// 3. Second identical read: served from the generation cache.
	w = do(t, srv, http.MethodGet, "/v1/items/p1/summary?k=2", nil)
	var sum2 ItemSummaryResponse
	decode(t, w, &sum2)
	if !sum2.Cached || sum2.Cost != sum.Cost {
		t.Fatalf("second summary = %+v", sum2)
	}

	// 4. Incremental append bumps the generation and invalidates.
	w = do(t, srv, http.MethodPut, "/v1/items/p1/reviews", AppendReviewsRequest{
		Reviews: []RawReview{{ID: "r3", Text: "Great camera and a decent price."}},
	})
	var stats2 osars.ItemStats
	decode(t, w, &stats2)
	if stats2.NumReviews != 3 || stats2.Generation <= stats.Generation || stats2.Name != "Acme Phone" {
		t.Fatalf("second append stats = %+v", stats2)
	}
	w = do(t, srv, http.MethodGet, "/v1/items/p1/summary?k=2&granularity=reviews&method=greedy", nil)
	var sum3 ItemSummaryResponse
	decode(t, w, &sum3)
	if sum3.Cached || sum3.Generation != stats2.Generation || len(sum3.ReviewIDs) != 2 {
		t.Fatalf("post-append summary = %+v", sum3)
	}

	// 5. Item stats and listing.
	w = do(t, srv, http.MethodGet, "/v1/items/p1", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("item stats status %d", w.Code)
	}
	w = do(t, srv, http.MethodGet, "/v1/items", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("list status %d: %s", w.Code, w.Body.String())
	}
	var list ListItemsResponse
	decode(t, w, &list)
	if len(list.Items) != 1 || list.Items[0].ID != "p1" {
		t.Fatalf("list = %+v", list)
	}
	if list.Stats.CacheHits == 0 || list.Stats.Solves == 0 || list.Stats.Appends != 2 {
		t.Fatalf("store stats = %+v", list.Stats)
	}

	// 6. Delete, then everything 404s.
	w = do(t, srv, http.MethodDelete, "/v1/items/p1", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("delete status %d: %s", w.Code, w.Body.String())
	}
	for _, path := range []string{"/v1/items/p1", "/v1/items/p1/summary?k=2"} {
		if w := do(t, srv, http.MethodGet, path, nil); w.Code != http.StatusNotFound {
			t.Fatalf("GET %s after delete = %d", path, w.Code)
		}
	}
	if w := do(t, srv, http.MethodDelete, "/v1/items/p1", nil); w.Code != http.StatusNotFound {
		t.Fatalf("double delete = %d", w.Code)
	}
}

func TestItemSummaryAllMethodsAndGranularities(t *testing.T) {
	srv := testServer(t)
	do(t, srv, http.MethodPut, "/v1/items/p1/reviews", AppendReviewsRequest{
		Reviews: validRequest().Reviews,
	})
	for _, g := range []string{"pairs", "sentences", "reviews"} {
		for _, m := range []string{"greedy", "rr", "ilp", "local-search"} {
			path := fmt.Sprintf("/v1/items/p1/summary?k=2&granularity=%s&method=%s", g, m)
			w := do(t, srv, http.MethodGet, path, nil)
			if w.Code != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", g, m, w.Code, w.Body.String())
			}
			var sum ItemSummaryResponse
			decode(t, w, &sum)
			switch g {
			case "pairs":
				if len(sum.Pairs) != 2 || sum.Pairs[0].Concept == "" {
					t.Fatalf("%s/%s: pairs = %+v", g, m, sum.Pairs)
				}
			case "sentences":
				if len(sum.Sentences) != 2 {
					t.Fatalf("%s/%s: sentences = %v", g, m, sum.Sentences)
				}
			case "reviews":
				if len(sum.ReviewIDs) != 2 {
					t.Fatalf("%s/%s: reviews = %v", g, m, sum.ReviewIDs)
				}
			}
		}
	}
}

func TestItemSummaryValidation(t *testing.T) {
	srv := testServer(t)
	do(t, srv, http.MethodPut, "/v1/items/p1/reviews", AppendReviewsRequest{
		Reviews: validRequest().Reviews,
	})
	cases := []struct {
		path   string
		status int
	}{
		{"/v1/items/p1/summary", http.StatusBadRequest},     // missing k
		{"/v1/items/p1/summary?k=0", http.StatusBadRequest}, // k < 1
		{"/v1/items/p1/summary?k=x", http.StatusBadRequest}, // non-integer k
		{"/v1/items/p1/summary?k=2&granularity=words", http.StatusBadRequest},
		{"/v1/items/p1/summary?k=2&method=magic", http.StatusBadRequest},
		{"/v1/items/ghost/summary?k=2", http.StatusNotFound},
	}
	for _, c := range cases {
		w := do(t, srv, http.MethodGet, c.path, nil)
		if w.Code != c.status {
			t.Errorf("%s: status = %d, want %d (%s)", c.path, w.Code, c.status, w.Body.String())
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: missing error body: %s", c.path, w.Body.String())
		}
	}
}

func TestAppendReviewsValidation(t *testing.T) {
	srv := testServer(t)
	srv.MaxReviews = 2
	w := do(t, srv, http.MethodPut, "/v1/items/p1/reviews", AppendReviewsRequest{
		Reviews: validRequest().Reviews, // 3 reviews > 2
	})
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("too many reviews status = %d", w.Code)
	}
	req := httptest.NewRequest(http.MethodPut, "/v1/items/p1/reviews", strings.NewReader("{nope"))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", rec.Code)
	}
	for _, c := range rawBodyCases(`"item_name":"Acme Phone"`) {
		w := doRaw(t, srv, http.MethodPut, "/v1/items/p1/reviews", []byte(c.body))
		checkRawBody(t, w, c.name, c.append)
	}
}

// TestOversizedBody413 pins that a body over MaxBodyBytes gets 413 on
// every endpoint that reads one: not a 400 from the JSON decoder, and
// not a 200 when the body's JSON value ends under the limit and only
// whitespace padding crosses it.
func TestOversizedBody413(t *testing.T) {
	srv := testServer(t)
	onto, _, _ := ontoServer(t)
	small, err := json.Marshal(validRequest())
	if err != nil {
		t.Fatal(err)
	}
	srv.MaxBodyBytes, onto.MaxBodyBytes = int64(len(small)), int64(len(small))
	big := validRequest()
	big.Reviews[0].Text = strings.Repeat("the screen is great. ", 50)
	bigBody, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	padded := append(small, bytes.Repeat([]byte(" "), 4096)...)
	_, entry := entryPayload(t, "phone", 0.9)
	for _, c := range []struct {
		srv          *Server
		method, path string
		body         []byte
	}{
		{srv, http.MethodPost, "/v1/summarize", bigBody},
		{srv, http.MethodPut, "/v1/items/p1/reviews", bigBody},
		{srv, http.MethodPost, "/v1/summarize", padded},
		{srv, http.MethodPut, "/v1/items/p1/reviews", padded},
		{onto, http.MethodPut, "/v1/ontologies/phone", entry},
	} {
		label := fmt.Sprintf("%s %s, %d-byte body", c.method, c.path, len(c.body))
		w := doRaw(t, c.srv, c.method, c.path, c.body)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413 (%s)", label, w.Code, w.Body.String())
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "exceeds") {
			t.Errorf("%s: error body = %s", label, w.Body.String())
		}
	}
}

// TestHealthzRejectsNonGET pins the other consistency satellite:
// /healthz and /v1/ontology both refuse non-GET verbs with a JSON 405.
func TestHealthzRejectsNonGET(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{"/healthz", "/v1/ontology"} {
		w := do(t, srv, http.MethodPost, path, map[string]string{"x": "y"})
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status = %d, want 405", path, w.Code)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("POST %s: missing JSON error body: %s", path, w.Body.String())
		}
	}
}

func TestStatelessModeDisablesItems(t *testing.T) {
	s, err := osars.New(osars.Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithStore(s, nil)
	if srv.Store() != nil {
		t.Fatal("expected nil store")
	}
	w := do(t, srv, http.MethodPut, "/v1/items/p1/reviews", AppendReviewsRequest{
		Reviews: validRequest().Reviews,
	})
	if w.Code != http.StatusNotFound {
		t.Fatalf("stateless append status = %d", w.Code)
	}
	// The stateless endpoint still works.
	w = do(t, srv, http.MethodPost, "/v1/summarize", validRequest())
	if w.Code != http.StatusOK {
		t.Fatalf("stateless summarize status = %d: %s", w.Code, w.Body.String())
	}
}

// TestStatelessMatchesStoredOverHTTP pins that both summary endpoints
// answer the same corpus with the same body: POST /v1/summarize and
// GET /v1/items/{id}/summary must be byte-identical once elapsed_ms
// (and the stored reply's generation and cached flag) are dropped, at
// every granularity and k (50 hits the candidate clamp), on unsharded
// and sharded stores.
func TestStatelessMatchesStoredOverHTTP(t *testing.T) {
	sum, err := osars.New(osars.Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	req := validRequest()
	req.Reviews = append(req.Reviews,
		RawReview{ID: "r4", Text: "The speaker is too quiet but the design is gorgeous.", Rating: 0.5},
		RawReview{ID: "r5", Text: "Battery drains overnight which is disappointing.", Rating: -0.5},
	)
	body := func(w *httptest.ResponseRecorder, label string) string {
		t.Helper()
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", label, w.Code, w.Body.String())
		}
		var resp SummarizeResponse
		decode(t, w, &resp)
		resp.ElapsedMS = 0
		data, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	for _, shards := range []int{1, 2} {
		srv := NewWithStore(sum, sum.NewStore(osars.StoreOptions{Shards: shards}))
		if w := do(t, srv, http.MethodPut, "/v1/items/"+req.ItemID+"/reviews",
			AppendReviewsRequest{ItemName: req.ItemName, Reviews: req.Reviews}); w.Code != http.StatusOK {
			t.Fatalf("append: %d %s", w.Code, w.Body.String())
		}
		for _, gran := range []string{"pairs", "sentences", "reviews"} {
			for _, k := range []int{1, 3, 50} {
				label := fmt.Sprintf("shards=%d %s k=%d", shards, gran, k)
				req.K, req.Granularity = k, gran
				stateless := body(post(t, srv, "/v1/summarize", req), label+" stateless")
				stored := body(do(t, srv, http.MethodGet,
					fmt.Sprintf("/v1/items/%s/summary?k=%d&granularity=%s", req.ItemID, k, gran), nil), label+" stored")
				if stateless != stored {
					t.Fatalf("%s: endpoints diverged:\nstateless: %s\nstored:    %s", label, stateless, stored)
				}
			}
		}
	}
}
