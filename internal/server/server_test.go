package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"osars"
	"osars/internal/dataset"
	"osars/internal/ontology"
)

func testServer(t *testing.T) *Server {
	t.Helper()
	s, err := osars.New(osars.Config{Ontology: dataset.CellPhoneOntology()})
	if err != nil {
		t.Fatal(err)
	}
	return New(s)
}

func post(t *testing.T, srv http.Handler, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

func validRequest() SummarizeRequest {
	return SummarizeRequest{
		ItemID:   "p1",
		ItemName: "Acme Phone",
		Reviews: []RawReview{
			{ID: "r1", Text: "The screen is excellent. The battery is awful."},
			{ID: "r2", Text: "Amazing screen resolution! The battery life is terrible."},
			{ID: "r3", Text: "Great camera and a decent price."},
		},
		K: 2,
	}
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Fatalf("healthz = %d %q", w.Code, w.Body.String())
	}
}

func TestSummarizeSentences(t *testing.T) {
	srv := testServer(t)
	w := post(t, srv, "/v1/summarize", validRequest())
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp SummarizeResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Sentences) != 2 || resp.Granularity != "sentences" || resp.Method != "greedy" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.NumPairs < 4 || resp.Cost < 0 {
		t.Fatalf("implausible resp = %+v", resp)
	}
}

func TestSummarizeAllMethodsAndGranularities(t *testing.T) {
	srv := testServer(t)
	for _, g := range []string{"pairs", "sentences", "reviews"} {
		for _, m := range []string{"greedy", "rr", "ilp", "local-search"} {
			req := validRequest()
			req.Granularity = g
			req.Method = m
			w := post(t, srv, "/v1/summarize", req)
			if w.Code != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", g, m, w.Code, w.Body.String())
			}
			var resp SummarizeResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			switch g {
			case "pairs":
				if len(resp.Pairs) != 2 {
					t.Fatalf("%s/%s: pairs = %v", g, m, resp.Pairs)
				}
				if resp.Pairs[0].Concept == "" {
					t.Fatalf("%s/%s: concept name missing", g, m)
				}
			case "sentences":
				if len(resp.Sentences) != 2 {
					t.Fatalf("%s/%s: sentences = %v", g, m, resp.Sentences)
				}
			case "reviews":
				if len(resp.ReviewIDs) != 2 {
					t.Fatalf("%s/%s: reviews = %v", g, m, resp.ReviewIDs)
				}
			}
		}
	}
}

func TestSummarizeValidation(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		name   string
		mutate func(*SummarizeRequest)
		status int
	}{
		{"zero k", func(r *SummarizeRequest) { r.K = 0 }, http.StatusBadRequest},
		{"no reviews", func(r *SummarizeRequest) { r.Reviews = nil }, http.StatusBadRequest},
		{"bad granularity", func(r *SummarizeRequest) { r.Granularity = "words" }, http.StatusBadRequest},
		{"bad method", func(r *SummarizeRequest) { r.Method = "magic" }, http.StatusBadRequest},
	}
	for _, c := range cases {
		req := validRequest()
		c.mutate(&req)
		w := post(t, srv, "/v1/summarize", req)
		if w.Code != c.status {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, w.Code, c.status, w.Body.String())
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: missing error body: %s", c.name, w.Body.String())
		}
	}
	for _, c := range rawBodyCases(`"k":2`) {
		w := doRaw(t, srv, http.MethodPost, "/v1/summarize", []byte(c.body))
		checkRawBody(t, w, c.name, c.summarize)
	}
}

// rawBodyCase is a request body and the status each endpoint answers
// it with.
type rawBodyCase struct {
	name, body        string
	summarize, append rawStatus
}

// rawStatus is a status code and, when err is set, a substring of the
// error message.
type rawStatus struct {
	code int
	err  string
}

// rawBodyCases pins the statuses of bodies that only raw JSON can
// express. extra is a member added to the valid body's object.
func rawBodyCases(extra string) []rawBodyCase {
	valid := `{"item_id":"p1","reviews":[{"id":"r1","text":"The screen is excellent. The battery is awful."}],` + extra + `}`
	withK := func(k string) string {
		return `{"item_id":"p1","reviews":[{"id":"r1","text":"The screen is excellent."}],"k":` + k + `}`
	}
	ok := rawStatus{code: http.StatusOK}
	bad := rawStatus{code: http.StatusBadRequest, err: "invalid JSON"}
	return []rawBodyCase{
		// The append body has no k: there it is an unknown key, skipped.
		{"fractional k", withK("2.5"), bad, ok},
		{"string k", withK(`"5"`), bad, ok},
		{"exponent k", withK("1e2"), bad, ok},
		{"20-digit k", withK("12345678901234567890"), bad, ok},
		{"top-level array", "[" + valid + "]", bad, bad},
		{"BOM", "\xef\xbb\xbf" + valid, bad, bad},
		{"null body", "null", rawStatus{http.StatusBadRequest, "k must be ≥ 1"}, ok},
		{"bytes after the object", valid + `{"k":`, ok, ok},
	}
}

func checkRawBody(t *testing.T, w *httptest.ResponseRecorder, name string, want rawStatus) {
	t.Helper()
	if w.Code != want.code {
		t.Errorf("%s: status = %d, want %d (%s)", name, w.Code, want.code, w.Body.String())
		return
	}
	if want.err == "" {
		return
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, want.err) {
		t.Errorf("%s: error body %s, want it to contain %q", name, w.Body.String(), want.err)
	}
}

func TestSummarizeRejectsOversized(t *testing.T) {
	srv := testServer(t)
	srv.MaxReviews = 2
	req := validRequest() // has 3 reviews
	w := post(t, srv, "/v1/summarize", req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", w.Code)
	}
}

func TestSummarizeBadJSONAndVerb(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodPost, "/v1/summarize", strings.NewReader("{not json"))
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad JSON status = %d", w.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/v1/summarize", nil)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", w.Code)
	}
}

func TestOntologyEndpoint(t *testing.T) {
	srv := testServer(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/ontology", nil)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var ont ontology.Ontology
	if err := json.Unmarshal(w.Body.Bytes(), &ont); err != nil {
		t.Fatalf("ontology not round-trippable: %v", err)
	}
	if ont.Len() < 60 {
		t.Fatalf("ontology too small: %v", &ont)
	}
	// Wrong verb.
	req = httptest.NewRequest(http.MethodPost, "/v1/ontology", nil)
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST ontology status = %d", w.Code)
	}
}
